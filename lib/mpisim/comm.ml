open Simcore
open Netsim

exception Draining

let () =
  Printexc.register_printer (function
    | Draining -> Some "Comm.Draining: send attempted past the checkpoint marker"
    | _ -> None)

(* Channels keyed by [src * size + dst]: an integer key, hashed without
   the polymorphic hash or a tuple per lookup. *)
module Channels = Hashtbl.Make (Int)

type endpoint = {
  comm : t;
  erank : int;
  evm : Vmsim.Vm.t;
  mutable draining : bool;
}

and t = {
  engine : Engine.t;
  net : Net.t;
  csize : int;
  endpoints : endpoint option array;
  queues : int Engine.Mailbox.t Channels.t; (* src * csize + dst -> sizes *)
  mutable in_flight : int;
  mutable barrier_count : int;
  mutable barrier_signal : unit Engine.Ivar.t;
}

let create engine net ~size =
  if size < 1 then invalid_arg "Comm.create: size must be >= 1";
  {
    engine;
    net;
    csize = size;
    endpoints = Array.make size None;
    queues = Channels.create 64;
    in_flight = 0;
    barrier_count = 0;
    barrier_signal = Engine.Ivar.create engine;
  }


let attach t ~rank ~vm =
  if rank < 0 || rank >= t.csize then invalid_arg "Comm.attach: rank out of range";
  if t.endpoints.(rank) <> None then invalid_arg "Comm.attach: rank already attached";
  let ep = { comm = t; erank = rank; evm = vm; draining = false } in
  t.endpoints.(rank) <- Some ep;
  ep


let endpoint t r =
  match t.endpoints.(r) with
  | Some ep -> ep
  | None -> failwith (Fmt.str "Comm: rank %d not attached" r)

let queue t ~src ~dst =
  let key = (src * t.csize) + dst in
  match Channels.find_opt t.queues key with
  | Some mb -> mb
  | None ->
      let mb = Engine.Mailbox.create t.engine in
      Channels.replace t.queues key mb;
      mb

let send ep ~dst ~bytes =
  if ep.draining then raise Draining;
  let t = ep.comm in
  let target = endpoint t dst in
  Vmsim.Vm.pause_point ep.evm;
  t.in_flight <- t.in_flight + 1;
  Net.transfer t.net ~src:(Vmsim.Vm.host ep.evm) ~dst:(Vmsim.Vm.host target.evm) bytes;
  Engine.Mailbox.send (queue t ~src:ep.erank ~dst) bytes;
  t.in_flight <- t.in_flight - 1

let recv ep ~src =
  let t = ep.comm in
  Vmsim.Vm.pause_point ep.evm;
  Engine.Mailbox.recv (queue t ~src ~dst:ep.erank)

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* Dissemination barrier: log(n) rounds of latency, then a centralized
   rendezvous for correctness. *)
let barrier ep =
  let t = ep.comm in
  Vmsim.Vm.pause_point ep.evm;
  Engine.sleep t.engine (float_of_int (log2_ceil t.csize) *. (Net.config t.net).Net.latency);
  if t.csize > 1 then begin
    t.barrier_count <- t.barrier_count + 1;
    if t.barrier_count = t.csize then begin
      let signal = t.barrier_signal in
      t.barrier_count <- 0;
      t.barrier_signal <- Engine.Ivar.create t.engine;
      Engine.Ivar.fill signal ()
    end
    else Engine.Ivar.read t.barrier_signal
  end

let in_flight t = t.in_flight

let drain_channels ep =
  let t = ep.comm in
  ep.draining <- true;
  (* Marker propagation: one control message per rank. *)
  Engine.sleep t.engine (2.0 *. (Net.config t.net).Net.latency);
  barrier ep;
  (* Sends are synchronous, so once every rank has reached the marker the
     network is quiescent. *)
  assert (t.in_flight = 0);
  ep.draining <- false
