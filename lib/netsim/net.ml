open Simcore

type host = {
  hid : int;
  hname : string;
  uplink : Rate_server.t;
  downlink : Rate_server.t;
  mutable sent : int;
  mutable received : int;
}

type config = {
  bandwidth : float;
  latency : float;
  segment_size : int;
  fabric_bandwidth : float option;
}

(* One partition epoch. Waiters block on [release], filled at the
   deadline or when a new partition replaces this one. *)
type partition_state = { side : host -> bool; until : float; release : unit Engine.Ivar.t }

type t = {
  engine : Engine.t;
  cfg : config;
  fabric : Rate_server.t option;
  mutable host_list : host list; (* newest first *)
  mutable next_id : int;
  mutable degrade_factor : float;
  mutable degrade_until : float;
  mutable part : partition_state option;
}

let default_config =
  {
    bandwidth = 117.5 *. float_of_int Size.mib;
    latency = 1e-4;
    segment_size = 256 * Size.kib;
    fabric_bandwidth = None;
  }

let create engine cfg =
  if cfg.bandwidth <= 0.0 then invalid_arg "Net.create: bandwidth";
  if cfg.segment_size <= 0 then invalid_arg "Net.create: segment_size";
  let fabric =
    Option.map
      (fun rate -> Rate_server.create engine ~rate ())
      cfg.fabric_bandwidth
  in
  {
    engine;
    cfg;
    fabric;
    host_list = [];
    next_id = 0;
    degrade_factor = 1.0;
    degrade_until = 0.0;
    part = None;
  }

let config t = t.cfg

let add_host t ~name =
  let host =
    {
      hid = t.next_id;
      hname = name;
      uplink = Rate_server.create t.engine ~rate:t.cfg.bandwidth ();
      downlink = Rate_server.create t.engine ~rate:t.cfg.bandwidth ();
      sent = 0;
      received = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.host_list <- host :: t.host_list;
  host

let host_name h = h.hname
let host_id h = h.hid
let hosts t = List.rev t.host_list
let bytes_sent h = h.sent
let uplink h = h.uplink
let downlink h = h.downlink
let fabric t = t.fabric
let bytes_received h = h.received

(* ------------------------------------------------------------------ *)
(* Injected link faults *)

let degrade t ~factor ~until =
  if factor < 1.0 then invalid_arg "Net.degrade: factor must be >= 1";
  t.degrade_factor <- factor;
  t.degrade_until <- until

let degradation t =
  if Engine.now t.engine < t.degrade_until then t.degrade_factor else 1.0

let release_partition p = if not (Engine.Ivar.is_filled p.release) then Engine.Ivar.fill p.release ()

let partition t ~side ~until =
  (* Replacing an active partition releases its waiters; they re-check
     against the new epoch. *)
  (match t.part with Some p -> release_partition p | None -> ());
  if until > Engine.now t.engine then begin
    let p = { side; until; release = Engine.Ivar.create t.engine } in
    t.part <- Some p;
    Engine.at t.engine until (fun () ->
        (match t.part with Some q when q == p -> t.part <- None | _ -> ());
        release_partition p)
  end
  else t.part <- None

(* A transfer or message that would cross the cut stalls until the
   partition clears — the deterministic model of packets timing out and
   being retransmitted once connectivity returns. Waiters block on the
   epoch's release ivar and re-check against whatever partition is active
   when it fills. *)
let rec wait_partition t a b =
  match t.part with
  | Some p when Engine.now t.engine < p.until && p.side a <> p.side b ->
      Engine.Ivar.read p.release;
      wait_partition t a b
  | _ -> ()

(* Degradation is modelled as extra sender-side serialization time per
   segment: factor f makes the effective per-link bandwidth cfg.bandwidth/f
   without perturbing the rate servers' shared-contention behaviour. *)
let degrade_delay t seg =
  let f = degradation t in
  if f > 1.0 then
    Engine.sleep t.engine (float_of_int seg /. t.cfg.bandwidth *. (f -. 1.0))

type segment = Seg of int | Eof

(* The receiving half of a transfer: each segment crosses the fabric (if
   any) and then the destination downlink, in order, while the sender
   pushes the next one through its uplink — a two-stage pipeline, so a
   transfer between two idle hosts runs at NIC rate, not half of it.

   The stage is a chain of engine callbacks over [inbox], not a fiber: it
   takes exactly the steps, at the same insertion indexes, that a
   forwarder fiber draining a mailbox would. Its start is posted where
   the fiber would be spawned; [waiting] is the fiber parked in an empty
   [recv], and a segment [hand]ed to it is posted where the mailbox would
   resume it; a segment already queued is taken through
   [Engine.continue_now], the immediate resume. The stage belongs to no
   sender, so a cancelled sender's segments in flight still cross the
   receiver's downlink. *)
type stage = {
  net : t;
  dst : host;
  inbox : segment Queue.t;
  mutable waiting : bool;
  finished : unit Engine.Ivar.t;
}

let rec next_segment s =
  if Queue.is_empty s.inbox then s.waiting <- true
  else Engine.continue_now s.net.engine (fun () -> serve s (Queue.pop s.inbox))

and serve s = function
  | Eof -> Engine.Ivar.fill s.finished ()
  | Seg seg -> (
      let downlink () =
        Rate_server.process_then s.dst.downlink seg (fun () ->
            s.dst.received <- s.dst.received + seg;
            next_segment s)
      in
      match s.net.fabric with
      | Some fabric -> Rate_server.process_then fabric seg downlink
      | None -> downlink ())

let hand s segment =
  if s.waiting then begin
    s.waiting <- false;
    Engine.post s.net.engine (fun () -> serve s segment)
  end
  else Queue.add segment s.inbox

let transfer t ~src ~dst bytes =
  if bytes < 0 then invalid_arg "Net.transfer: negative size";
  if src != dst && bytes > 0 then begin
    wait_partition t src dst;
    Engine.sleep t.engine t.cfg.latency;
    let s =
      {
        net = t;
        dst;
        inbox = Queue.create ();
        waiting = false;
        finished = Engine.Ivar.create t.engine;
      }
    in
    Engine.post t.engine (fun () -> next_segment s);
    (match
       let remaining = ref bytes in
       while !remaining > 0 do
         let seg = min t.cfg.segment_size !remaining in
         Rate_server.process src.uplink seg;
         degrade_delay t seg;
         src.sent <- src.sent + seg;
         hand s (Seg seg);
         remaining := !remaining - seg
       done
     with
    | () -> hand s Eof
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        hand s Eof;
        Printexc.raise_with_backtrace exn bt);
    Engine.Ivar.read s.finished
  end

let message t ~src ~dst =
  if src != dst then begin
    wait_partition t src dst;
    Engine.sleep t.engine t.cfg.latency
  end
