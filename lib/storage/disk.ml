open Simcore

exception Full of { disk : string; need : int; capacity : int }

let () =
  Printexc.register_printer (function
    | Full { disk; need; capacity } ->
        Some (Fmt.str "Disk.Full(%s: need %d of %d)" disk need capacity)
    | _ -> None)

type t = {
  engine : Engine.t;
  dname : string;
  server : Rate_server.t;
  capacity : int;
  mutable used : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable armed_faults : int;
}

let default_rate = 55.0 *. float_of_int Size.mib
let default_per_op = 5e-4
let default_seek = 8e-3

let create engine ?(rate = default_rate) ?(per_op = default_per_op) ?(seek = default_seek)
    ?(capacity = Size.gib_n 278) ?(name = "disk") () =
  {
    engine;
    dname = name;
    server = Rate_server.create engine ~rate ~per_op ~seek ();
    capacity;
    used = 0;
    bytes_read = 0;
    bytes_written = 0;
    armed_faults = 0;
  }

let inject_transient t ~ops =
  if ops < 0 then invalid_arg "Disk.inject_transient";
  t.armed_faults <- t.armed_faults + ops

let armed_faults t = t.armed_faults

(* An armed fault fires before the operation touches the media: no service
   time is charged and no state changes — the retry pays the backoff. *)
let maybe_fault t =
  if t.armed_faults > 0 then begin
    t.armed_faults <- t.armed_faults - 1;
    Trace.emit t.engine ~component:t.dname "transient I/O error injected";
    raise (Faults.Injected_error (t.dname ^ ": I/O error"))
  end

let read t ?stream bytes =
  maybe_fault t;
  Rate_server.process t.server ?stream bytes;
  t.bytes_read <- t.bytes_read + bytes

let write t ?stream bytes =
  maybe_fault t;
  if t.used + bytes > t.capacity then
    raise (Full { disk = t.dname; need = t.used + bytes; capacity = t.capacity });
  Rate_server.process t.server ?stream bytes;
  t.used <- t.used + bytes;
  t.bytes_written <- t.bytes_written + bytes

let free t bytes =
  if bytes < 0 || bytes > t.used then invalid_arg "Disk.free";
  t.used <- t.used - bytes

let reserve t bytes =
  if bytes < 0 then invalid_arg "Disk.reserve";
  if t.used + bytes > t.capacity then
    raise (Full { disk = t.dname; need = t.used + bytes; capacity = t.capacity });
  t.used <- t.used + bytes

let used t = t.used
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let busy_time t = Rate_server.busy_time t.server
