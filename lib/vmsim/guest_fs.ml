open Simcore
open Vdisk

exception Fs_full

let magic = "BLOBCRFS"

type entry = {
  mutable size : int;
  mutable extents : (int * int) list; (* (offset, len), block-aligned, in order *)
  mutable cache : Payload.t option;
  mutable appended : Payload.t list; (* appends not yet folded into [cache], newest first *)
  mutable dirty : bool;
  mutable persisted_size : int; (* bytes the on-disk extents actually cover *)
  mutable generation : int; (* bumped on every cache mutation *)
}

type t = {
  dev : Block_dev.t;
  files : (string, entry) Hashtbl.t;
  mutable next_free : int;
  mutable free_list : (int * int) list;
  mutable meta_dirty : bool;
}

(* The on-disk superblock. [p_block_size] and [p_meta_region] always hold
   [block_size] and [meta_region]; they keep the superblock's layout, and
   so the size of every metadata write. *)
type persisted = {
  p_block_size : int;
  p_meta_region : int;
  p_next_free : int;
  p_free_list : (int * int) list;
  p_files : (string * int * (int * int) list) list;
}

(* Bytes at the start of the device that hold the superblock and file
   table, and the allocation unit of the data after them. *)
let meta_region = 4 * Size.mib
let block_size = 4 * Size.kib

let format dev =
  if meta_region >= dev.Block_dev.capacity then invalid_arg "Guest_fs.format: device too small";
  {
    dev;
    files = Hashtbl.create 64;
    next_free = meta_region;
    free_list = [];
    meta_dirty = true;
  }


(* ------------------------------------------------------------------ *)
(* Metadata persistence *)

let serialize t =
  (* Metadata describes what is durably on disk ([persisted_size]), never
     in-flight page-cache state: a snapshot taken between syncs must mount
     to the last synced contents, not to torn ones. *)
  let files =
    Hashtbl.fold (fun path e acc -> (path, e.persisted_size, e.extents) :: acc) t.files []
    |> List.sort compare
  in
  let persisted =
    {
      p_block_size = block_size;
      p_meta_region = meta_region;
      p_next_free = t.next_free;
      p_free_list = t.free_list;
      p_files = files;
    }
  in
  let body = Marshal.to_bytes persisted [] in
  let header = Bytes.create 16 in
  Bytes.blit_string magic 0 header 0 8;
  Bytes.set_int64_le header 8 (Int64.of_int (Bytes.length body));
  Payload.concat [ Payload.of_bytes header; Payload.of_bytes body ]

let write_metadata t =
  let meta = serialize t in
  if Payload.length meta > meta_region then failwith "Guest_fs: metadata region overflow";
  Block_dev.write t.dev ~offset:0 meta;
  t.meta_dirty <- false

let mount dev =
  let header = Payload.to_string (Block_dev.read dev ~offset:0 ~len:16) in
  if String.sub header 0 8 <> magic then failwith "Guest_fs.mount: no file system found";
  let len = Int64.to_int (Bytes.get_int64_le (Bytes.of_string header) 8) in
  let body = Payload.to_string (Block_dev.read dev ~offset:16 ~len) in
  let persisted : persisted = Marshal.from_string body 0 in
  let t =
    {
      dev;
      files = Hashtbl.create 64;
      next_free = persisted.p_next_free;
      free_list = persisted.p_free_list;
      meta_dirty = false;
    }
  in
  List.iter
    (fun (path, size, extents) ->
      Hashtbl.replace t.files path
        {
          size;
          extents;
          cache = None;
          appended = [];
          dirty = false;
          persisted_size = size;
          generation = 0;
        })
    persisted.p_files;
  t

(* ------------------------------------------------------------------ *)
(* Allocation *)

let extent_bytes extents = List.fold_left (fun acc (_, len) -> acc + len) 0 extents

(* First fit from the free list, else bump allocation. Returns a list of
   extents totalling exactly [bytes] (block-aligned). *)
let allocate t bytes =
  assert (bytes mod block_size = 0);
  let rec take_free acc needed = function
    | [] -> (acc, needed, [])
    | (off, len) :: rest when needed = 0 -> (acc, 0, (off, len) :: rest)
    | (off, len) :: rest ->
        if len <= needed then take_free ((off, len) :: acc) (needed - len) rest
        else ((off, needed) :: acc, 0, (off + needed, len - needed) :: rest)
  in
  let taken, still_needed, free_list = take_free [] bytes t.free_list in
  t.free_list <- free_list;
  let extents =
    if still_needed = 0 then List.rev taken
    else begin
      if t.next_free + still_needed > t.dev.Block_dev.capacity then raise Fs_full;
      let fresh = (t.next_free, still_needed) in
      t.next_free <- t.next_free + still_needed;
      List.rev (fresh :: taken)
    end
  in
  t.meta_dirty <- true;
  extents

let release t extents =
  t.free_list <- t.free_list @ extents;
  t.meta_dirty <- true

(* ------------------------------------------------------------------ *)
(* File operations *)

let find t path =
  match Hashtbl.find_opt t.files path with Some e -> e | None -> raise Not_found

let write_file t ~path payload =
  match Hashtbl.find_opt t.files path with
  | Some e ->
      e.cache <- Some payload;
      e.appended <- [];
      e.size <- Payload.length payload;
      e.generation <- e.generation + 1;
      e.dirty <- true
  | None ->
      Hashtbl.replace t.files path
        {
          size = Payload.length payload;
          extents = [];
          cache = Some payload;
          appended = [];
          dirty = true;
          persisted_size = 0;
          generation = 0;
        };
      t.meta_dirty <- true

(* The file's contents. Pending appends fold in with one [concat], which
   merges exactly as the chain of one [concat] per append would. *)
let rec load t e =
  match (e.cache, e.appended) with
  | Some payload, [] -> payload
  | Some payload, appended ->
      let payload = Payload.concat (payload :: List.rev appended) in
      e.cache <- Some payload;
      e.appended <- [];
      payload
  | None, _ ->
      let parts =
        List.map (fun (offset, len) -> Block_dev.read t.dev ~offset ~len) e.extents
      in
      e.cache <- Some (Payload.sub (Payload.concat parts) ~pos:0 ~len:e.persisted_size);
      load t e

let read_file t ~path = load t (find t path)

let append_file t ~path payload =
  match Hashtbl.find_opt t.files path with
  | None -> write_file t ~path payload
  | Some e ->
      (* An uncached file is loaded now, so its device reads land where
         they always have; the append itself waits for the next [load]. *)
      if Option.is_none e.cache then ignore (load t e);
      e.appended <- payload :: e.appended;
      e.size <- e.size + Payload.length payload;
      e.generation <- e.generation + 1;
      e.dirty <- true

let file_size t ~path = (find t path).size
let exists t ~path = Hashtbl.mem t.files path

let list_files t =
  Hashtbl.fold (fun path _ acc -> path :: acc) t.files [] |> List.sort compare

let delete_file t ~path =
  let e = find t path in
  release t e.extents;
  Hashtbl.remove t.files path;
  t.meta_dirty <- true

let dirty_bytes t =
  (* lint: allow hashtbl-order — commutative sum *)
  Hashtbl.fold (fun _ e acc -> if e.dirty then acc + e.size else acc) t.files 0

let used_bytes t = Hashtbl.fold (fun _ e acc -> acc + extent_bytes e.extents) t.files 0 (* lint: allow hashtbl-order — commutative sum *)

let flush_file t e =
  let generation = e.generation in
  let payload = load t e in
  let size = Payload.length payload in
  let needed = Size.round_up size block_size in
  let have = extent_bytes e.extents in
  if needed > have then e.extents <- e.extents @ allocate t (needed - have)
  else if needed < have then begin
    (* Shrink: give surplus whole extents back. *)
    let rec keep acc remaining = function
      | [] -> (List.rev acc, [])
      | (off, len) :: rest ->
          if remaining >= len then keep ((off, len) :: acc) (remaining - len) rest
          else if remaining > 0 then keep ((off, remaining) :: acc) 0 ((off + remaining, len - remaining) :: rest)
          else (List.rev acc, (off, len) :: rest)
    in
    let kept, surplus = keep [] needed e.extents in
    e.extents <- kept;
    release t surplus
  end;
  (* Write the content across the extents. *)
  let rec emit pos = function
    | [] -> ()
    | (offset, len) :: rest ->
        let chunk = min len (size - pos) in
        if chunk > 0 then
          Block_dev.write t.dev ~offset (Payload.sub payload ~pos ~len:chunk);
        emit (pos + chunk) rest
  in
  emit 0 e.extents;
  e.persisted_size <- size;
  t.meta_dirty <- true;
  (* Concurrent guest writes may have landed while our device writes were
     blocked; they stay dirty for the next sync. *)
  if e.generation = generation then e.dirty <- false

let sync t =
  (* lint: allow hashtbl-order — flush_file only flips per-file flags *)
  Hashtbl.iter (fun _ e -> if e.dirty then flush_file t e) t.files;
  if t.meta_dirty then write_metadata t;
  Block_dev.flush t.dev
