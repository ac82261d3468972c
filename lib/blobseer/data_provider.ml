open Simcore
open Netsim
open Storage

type t = {
  engine : Engine.t;
  net : Net.t;
  pname : string;
  phost : Net.host;
  pdisk : Disk.t;
  mutable pstore : Content_store.t;
  service : Rate_server.t;
  mutable alive : bool;
}

let create engine net ~host ~disk ~request_overhead ~name =
  {
    engine;
    net;
    pname = name;
    phost = host;
    pdisk = disk;
    pstore = Content_store.create ();
    service =
      Rate_server.create engine ~rate:1e12 ~per_op:request_overhead ();
    alive = true;
  }

let name t = t.pname
let host t = t.phost
let disk t = t.pdisk
let store t = t.pstore
let is_alive t = t.alive

let fail t =
  t.alive <- false;
  (* Locally stored data is lost with the machine. *)
  Disk.free t.pdisk (Content_store.total_bytes t.pstore);
  t.pstore <- Content_store.create ()

let check_alive t =
  if not t.alive then raise (Types.Provider_down t.pname)

(* BlobSeer data providers are log-structured: every chunk is written
   out-of-place, so provider writes stay sequential no matter how many
   clients interleave — one of the reasons BlobSeer sustains heavy write
   concurrency better than an in-place file system. *)
let append_stream t = 1_000_000 + Net.host_id t.phost

(* Local disk I/O retries transient injected errors on the provider side,
   so a flaky spindle does not surface to clients that still have the
   network round-trip invested in this replica. *)
let disk_retries = 3

let write_chunk t ~from payload =
  check_alive t;
  let bytes = Payload.length payload in
  Net.transfer t.net ~src:from ~dst:t.phost bytes;
  check_alive t;
  Rate_server.process t.service 0;
  Faults.with_retries t.engine ~retries:disk_retries ~label:t.pname (fun () ->
      Disk.write t.pdisk ~stream:(append_stream t) bytes);
  check_alive t;
  Content_store.put t.pstore payload

let read_chunk t ~to_ chunk =
  check_alive t;
  let payload = Content_store.get t.pstore chunk in
  Rate_server.process t.service 0;
  Faults.with_retries t.engine ~retries:disk_retries ~label:t.pname (fun () ->
      Disk.read t.pdisk ~stream:(Net.host_id to_) (Payload.length payload));
  check_alive t;
  Net.transfer t.net ~src:t.phost ~dst:to_ (Payload.length payload);
  payload

(* Silent corruption: flip bytes of the stored copy in place. The digest
   recorded at write time is left untouched, so readers and the scrubber
   detect the damage by recomputing. [salt] seeds the replacement pattern so
   distinct corruption events produce distinct (but deterministic) garbage. *)
let corrupt_chunk t ~salt chunk =
  if t.alive && Content_store.mem t.pstore chunk then begin
    let len = Payload.length (Content_store.get t.pstore chunk) in
    let garbage = Payload.pattern ~seed:(Int64.of_int (0x5EED_0000 + salt)) (max len 1) in
    Content_store.corrupt t.pstore chunk (Payload.sub garbage ~pos:0 ~len);
    true
  end
  else false

let verify_chunk t chunk =
  t.alive
  && Content_store.mem t.pstore chunk
  && Payload.digest (Content_store.get t.pstore chunk)
     = Content_store.recorded_digest t.pstore chunk

let delete_chunk t chunk =
  if t.alive && Content_store.mem t.pstore chunk then begin
    let bytes = Payload.length (Content_store.get t.pstore chunk) in
    Content_store.remove t.pstore chunk;
    Disk.free t.pdisk bytes
  end

let chunk_count t = Content_store.chunk_count t.pstore
let stored_bytes t = Content_store.total_bytes t.pstore
