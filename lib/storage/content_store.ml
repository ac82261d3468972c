open Simcore

type chunk_id = int

(* [digest] is recorded once at [put] time and deliberately NOT refreshed by
   [corrupt]: it models the checksum the provider wrote alongside the chunk,
   which silent media corruption does not update. *)
type entry = { mutable payload : Payload.t; digest : int64 }

type t = {
  table : (chunk_id, entry) Hashtbl.t;
  mutable next_id : chunk_id;
  mutable total_bytes : int;
}

let create () = { table = Hashtbl.create 1024; next_id = 0; total_bytes = 0 }

let put t payload =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.table id { payload; digest = Payload.digest payload };
  t.total_bytes <- t.total_bytes + Payload.length payload;
  id

let get t id =
  let entry = Hashtbl.find t.table id in
  entry.payload

let remove t id =
  let entry = Hashtbl.find t.table id in
  Hashtbl.remove t.table id;
  t.total_bytes <- t.total_bytes - Payload.length entry.payload

let recorded_digest t id =
  let entry = Hashtbl.find t.table id in
  entry.digest

let corrupt t id payload =
  let entry = Hashtbl.find t.table id in
  t.total_bytes <- t.total_bytes - Payload.length entry.payload + Payload.length payload;
  entry.payload <- payload

let ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.table [] |> List.sort compare
let mem t id = Hashtbl.mem t.table id
let chunk_count t = Hashtbl.length t.table
let total_bytes t = t.total_bytes
