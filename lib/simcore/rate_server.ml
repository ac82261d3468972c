type t = {
  engine : Engine.t;
  rate : float;
  per_op : float;
  seek : float;
  lock : Engine.Semaphore.t;
  mutable has_stream : bool;  (* whether [last_stream] holds a served stream yet *)
  mutable last_stream : int;
  mutable busy : float;
  mutable ops : int;
  mutable bytes : int;
  mutable seek_count : int;
}

let create engine ~rate ?(per_op = 0.0) ?(seek = 0.0) () =
  if rate <= 0.0 then invalid_arg "Rate_server.create: rate must be positive";
  if per_op < 0.0 || seek < 0.0 then invalid_arg "Rate_server.create: negative cost";
  {
    engine;
    rate;
    per_op;
    seek;
    lock = Engine.Semaphore.create engine 1;
    has_stream = false;
    last_stream = 0;
    busy = 0.0;
    ops = 0;
    bytes = 0;
    seek_count = 0;
  }

let check_request ~ops bytes =
  if bytes < 0 then invalid_arg "Rate_server.process: negative size";
  if ops < 0 then invalid_arg "Rate_server.process: negative ops"

(* The service time of one occupancy, charging the seek (if any) as it
   starts; [finish_service] accounts it once served. Both forms of
   [process] go through these two functions. *)
let start_service t stream ~ops bytes =
  let seek_time =
    match stream with
    | Some s when not (t.has_stream && t.last_stream = s) ->
        t.has_stream <- true;
        t.last_stream <- s;
        t.seek_count <- t.seek_count + 1;
        t.seek
    | Some _ | None -> 0.0
  in
  seek_time +. (float_of_int ops *. t.per_op) +. (float_of_int bytes /. t.rate)

let finish_service t service ~ops bytes =
  t.busy <- t.busy +. service;
  t.ops <- t.ops + ops;
  t.bytes <- t.bytes + bytes

let serve t stream ~ops bytes =
  check_request ~ops bytes;
  Engine.Semaphore.with_held t.lock (fun () ->
      let service = start_service t stream ~ops bytes in
      Engine.sleep t.engine service;
      finish_service t service ~ops bytes)

let process_then t bytes k =
  check_request ~ops:1 bytes;
  Engine.Semaphore.acquire_then t.lock (fun () ->
      let service = start_service t None ~ops:1 bytes in
      Engine.after t.engine service (fun () ->
          finish_service t service ~ops:1 bytes;
          Engine.Semaphore.release t.lock;
          k ()))

let process_many t ~ops bytes = serve t None ~ops bytes
let process t ?stream bytes = serve t stream ~ops:1 bytes

let busy_time t = t.busy
let ops t = t.ops
let bytes_served t = t.bytes
let seeks t = t.seek_count
