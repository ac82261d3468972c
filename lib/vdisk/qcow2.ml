open Simcore
open Netsim
open Storage

type remote_image = {
  rfs : Pvfs.t;
  rfile : Pvfs.file;
  rcapacity : int;
  rcluster_size : int;
  rmeta_bytes : int;
  rtable : (int, int) Hashtbl.t; (* guest cluster -> physical cluster *)
  rsnapshots : (string * (int, int) Hashtbl.t * (int * int)) list;
      (* name, table, (vm_state offset, len) in file *)
  rbacking : backing;
  rdelta : bool; (* incremental export: rtable covers only changed clusters *)
  rdigests : (int, int64) Hashtbl.t Lazy.t;
      (* guest cluster -> effective content digest through the chain, for
         delta detection by the next export_incremental; built only when
         one asks *)
}

and backing = No_backing | Raw_pvfs of Pvfs.file | Qcow2_remote of remote_image

type snapshot = {
  stable : (int, int) Hashtbl.t;
  svm_state : Payload.t;
}

type t = {
  engine : Engine.t;
  host : Net.host;
  local_disk : Disk.t;
  qname : string;
  qcapacity : int;
  qcluster_size : int;
  backing : backing;
  data : (int, Payload.t) Hashtbl.t; (* physical cluster -> content *)
  mutable table : (int, int) Hashtbl.t; (* guest cluster -> physical *)
  refcounts : (int, int) Hashtbl.t; (* physical -> table references *)
  mutable snapshots : (string * snapshot) list; (* newest first *)
  mutable next_phys : int;
  mutable snapshot_meta_bytes : int; (* stored tables + vm states *)
}

let default_cluster_size = 64 * Size.kib

let table_bytes ~capacity ~cluster_size =
  (* L1/L2/refcount entries: ~16 bytes of metadata per addressable
     cluster, rounded up to a cluster. *)
  let entries = Size.div_ceil capacity cluster_size in
  Size.round_up (16 * entries) cluster_size

let header_bytes ~capacity ~cluster_size =
  cluster_size + table_bytes ~capacity ~cluster_size

(* Refcount audit (paper §2.3 baseline mechanics): every physical
   cluster's refcount must equal its references from the live table plus
   all frozen snapshot tables, every referenced cluster must hold data,
   and no data cluster may be orphaned. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let audit t =
  let v invariant fmt = Engine.violation ~subject:("qcow2:" ^ t.qname) invariant fmt in
  let refs = Hashtbl.create 256 in
  let count table =
    (* lint: allow hashtbl-order — commutative count *)
    Hashtbl.iter
      (fun _ phys ->
        Hashtbl.replace refs phys (1 + Option.value ~default:0 (Hashtbl.find_opt refs phys)))
      table
  in
  count t.table;
  List.iter (fun (_, s) -> count s.stable) t.snapshots;
  let expected = sorted_bindings refs in
  let stored phys = match Hashtbl.find_opt t.refcounts phys with Some 0 | None -> None | m -> m in
  List.filter_map
    (fun (phys, n) ->
      match stored phys with
      | Some m when m = n -> None
      | Some m ->
          Some (v "refcount" "physical cluster %d: stored refcount %d, %d references" phys m n)
      | None -> Some (v "refcount" "physical cluster %d: no refcount, %d references" phys n))
    expected
  @ List.filter_map
      (fun (phys, m) ->
        if m = 0 || Hashtbl.mem refs phys then None
        else Some (v "refcount" "physical cluster %d: refcount %d but unreferenced" phys m))
      (sorted_bindings t.refcounts)
  @ List.filter_map
      (fun (phys, _) ->
        if Hashtbl.mem refs phys then None
        else Some (v "no-orphans" "data cluster %d referenced by no table" phys))
      (sorted_bindings t.data)
  @ List.filter_map
      (fun (phys, _) ->
        if Hashtbl.mem t.data phys then None
        else Some (v "data-present" "referenced cluster %d holds no data" phys))
      expected

let create engine ~host ~local_disk ?(cluster_size = default_cluster_size) ~capacity
    ~backing ~name () =
  if capacity <= 0 || cluster_size <= 0 then invalid_arg "Qcow2.create";
  (match backing with
  | Qcow2_remote r when r.rcapacity <> capacity ->
      invalid_arg "Qcow2.create: backing capacity mismatch"
  | _ -> ());
  let t =
    {
      engine;
      host;
      local_disk;
      qname = name;
      qcapacity = capacity;
      qcluster_size = cluster_size;
      backing;
      data = Hashtbl.create 256;
      table = Hashtbl.create 256;
      refcounts = Hashtbl.create 256;
      snapshots = [];
      next_phys = 0;
      snapshot_meta_bytes = 0;
    }
  in
  (* The freshly created file holds header + empty tables. *)
  Disk.reserve local_disk (header_bytes ~capacity ~cluster_size);
  Engine.register_audit engine (fun () -> audit t);
  t

let data_bytes t = t.next_phys * t.qcluster_size

let file_size t =
  header_bytes ~capacity:t.qcapacity ~cluster_size:t.qcluster_size
  + data_bytes t + t.snapshot_meta_bytes

let drop_local t =
  Disk.free t.local_disk (file_size t);
  Hashtbl.reset t.data;
  Hashtbl.reset t.table;
  Hashtbl.reset t.refcounts;
  t.snapshots <- []

let local_stream t = Net.host_id t.host

let cluster_extent t index = min t.qcapacity ((index + 1) * t.qcluster_size) - (index * t.qcluster_size)

(* ------------------------------------------------------------------ *)
(* Remote (exported) image reads *)

let rec backing_cluster_content ~engine ~from ~backing ~cluster_size ~capacity index =
  let cstart = index * cluster_size in
  let extent = min capacity (cstart + cluster_size) - cstart in
  match backing with
  | No_backing -> Payload.zero extent
  | Raw_pvfs file ->
      let readable = max 0 (min extent (Pvfs.size file - cstart)) in
      if readable <= 0 then Payload.zero extent
      else
        let p = Pvfs.read file ~from ~offset:cstart ~len:readable in
        if readable = extent then p else Payload.concat [ p; Payload.zero (extent - readable) ]
  | Qcow2_remote r -> (
      match Hashtbl.find_opt r.rtable index with
      | Some phys ->
          Pvfs.read r.rfile ~from ~offset:(r.rmeta_bytes + (phys * r.rcluster_size)) ~len:extent
      | None ->
          (* A delta level pays a table-probe request before falling
             through: the per-level read amplification of an incremental
             chain, which [collapse_chain] removes. Full exports resolve
             misses from their in-memory L1 for free, as before. *)
          if r.rdelta then
            ignore
              (Pvfs.read r.rfile ~from
                 ~offset:(min (16 * index) (r.rmeta_bytes - 16))
                 ~len:16);
          backing_cluster_content ~engine ~from ~backing:r.rbacking
            ~cluster_size:r.rcluster_size ~capacity:r.rcapacity index)

(* ------------------------------------------------------------------ *)
(* Local reads and writes *)

let local_cluster t index = Hashtbl.find_opt t.table index

let read_cluster t index =
  let extent = cluster_extent t index in
  match local_cluster t index with
  | Some phys ->
      Disk.read t.local_disk ~stream:(local_stream t) extent;
      let p = Hashtbl.find t.data phys in
      Payload.sub p ~pos:0 ~len:extent
  | None ->
      backing_cluster_content ~engine:t.engine ~from:t.host ~backing:t.backing
        ~cluster_size:t.qcluster_size ~capacity:t.qcapacity index

let read t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.qcapacity then
    invalid_arg "Qcow2.read: out of bounds";
  if len = 0 then Payload.zero 0
  else begin
    let cs = t.qcluster_size in
    let first = offset / cs and last = (offset + len - 1) / cs in
    let parts = List.init (last - first + 1) (fun k -> read_cluster t (first + k)) in
    Payload.sub (Payload.concat parts) ~pos:(offset - (first * cs)) ~len
  end

let alloc_phys t =
  let phys = t.next_phys in
  t.next_phys <- t.next_phys + 1;
  (* The file grows by one cluster. *)
  Disk.reserve t.local_disk t.qcluster_size;
  phys

let refs t phys = Option.value ~default:0 (Hashtbl.find_opt t.refcounts phys)

let write_cluster t index content =
  let extent = cluster_extent t index in
  assert (Payload.length content = extent);
  match local_cluster t index with
  | Some phys when refs t phys <= 1 ->
      (* Sole reference: overwrite in place. *)
      Disk.write t.local_disk ~stream:(local_stream t) extent;
      Disk.free t.local_disk extent;
      Hashtbl.replace t.data phys content
  | Some _ | None ->
      (* Unallocated, or frozen by a snapshot: allocate a fresh cluster. *)
      let phys = alloc_phys t in
      Disk.write t.local_disk ~stream:(local_stream t) extent;
      Disk.free t.local_disk extent;
      (match local_cluster t index with
      | Some old -> Hashtbl.replace t.refcounts old (refs t old - 1)
      | None -> ());
      Hashtbl.replace t.data phys content;
      Hashtbl.replace t.table index phys;
      Hashtbl.replace t.refcounts phys 1

let write t ~offset payload =
  let len = Payload.length payload in
  if offset < 0 || offset + len > t.qcapacity then invalid_arg "Qcow2.write: out of bounds";
  if len > 0 then begin
    let cs = t.qcluster_size in
    let first = offset / cs and last = (offset + len - 1) / cs in
    for index = first to last do
      let cstart = index * cs in
      let extent = cluster_extent t index in
      let wstart = max cstart offset and wend = min (cstart + extent) (offset + len) in
      let content =
        if wstart = cstart && wend = cstart + extent then
          Payload.sub payload ~pos:(cstart - offset) ~len:extent
        else begin
          (* Partial cluster write: copy-on-write needs the old content. *)
          let old = read_cluster t index in
          Payload.concat
            [
              Payload.sub old ~pos:0 ~len:(wstart - cstart);
              Payload.sub payload ~pos:(wstart - offset) ~len:(wend - wstart);
              Payload.sub old ~pos:(wend - cstart) ~len:(cstart + extent - wend);
            ]
        end
      in
      write_cluster t index content
    done
  end

let device t =
  {
    Block_dev.capacity = t.qcapacity;
    read = (fun ~offset ~len -> read t ~offset ~len);
    write = (fun ~offset payload -> write t ~offset payload);
    flush = (fun () -> ());
  }

(* ------------------------------------------------------------------ *)
(* Internal snapshots *)

let m_savevm_bytes = Obs.Metrics.counter ~component:"qcow2" ~name:"savevm_bytes"
let m_export_bytes = Obs.Metrics.counter ~component:"qcow2" ~name:"export_bytes"

let savevm t ~snapshot_name ~vm_state =
  if List.mem_assoc snapshot_name t.snapshots then
    invalid_arg (Fmt.str "Qcow2.savevm: snapshot %s exists" snapshot_name);
  Obs.Span.with_ t.engine ~component:"qcow2" ~name:"qcow2.savevm"
    ~attrs:[ ("bytes", Obs.Record.Bytes (Payload.length vm_state)) ]
  @@ fun () ->
  Obs.Metrics.add m_savevm_bytes (float_of_int (Payload.length vm_state));
  let stable = Hashtbl.copy t.table in
  (* lint: allow hashtbl-order — commutative per-cluster increments *)
  Hashtbl.iter (fun _ phys -> Hashtbl.replace t.refcounts phys (refs t phys + 1)) stable;
  let meta =
    Payload.length vm_state
    + table_bytes ~capacity:t.qcapacity ~cluster_size:t.qcluster_size
  in
  (* Dumping the VM state is a local sequential write into the image. *)
  Disk.write t.local_disk ~stream:(local_stream t) (Payload.length vm_state);
  Disk.reserve t.local_disk meta;
  Disk.free t.local_disk (Payload.length vm_state);
  t.snapshot_meta_bytes <- t.snapshot_meta_bytes + meta;
  t.snapshots <- (snapshot_name, { stable; svm_state = vm_state }) :: t.snapshots

let snapshot_names t = List.rev_map fst t.snapshots

let unsafe_set_refcount t ~phys count = Hashtbl.replace t.refcounts phys count

(* ------------------------------------------------------------------ *)
(* Export to PVFS *)

let pad_to cluster_size p =
  if Payload.length p = cluster_size then p
  else Payload.concat [ p; Payload.zero (cluster_size - Payload.length p) ]

(* Digests are always of the cluster-size-padded content, so a short tail
   cluster compares equal across levels. A full cluster's digest is
   memoized on its payload, which [t.data] never mutates. *)
let guest_digest t phys = Payload.digest (pad_to t.qcluster_size (Hashtbl.find t.data phys))

(* Effective guest-cluster digests of the image as exported: the backing
   chain's digests overlaid with the digests of every locally allocated
   cluster. Built on first use from the (guest, payload) pairs captured
   here, never from [t], which later writes overwrite in place. *)
let effective_digests t =
  let backing =
    match t.backing with Qcow2_remote r -> Some r.rdigests | No_backing | Raw_pvfs _ -> None
  in
  let cluster_size = t.qcluster_size in
  let local =
    (* lint: allow hashtbl-order — independent per-key replaces below *)
    Hashtbl.fold (fun guest phys acc -> (guest, Hashtbl.find t.data phys) :: acc) t.table []
  in
  lazy
    (let digests =
       match backing with
       | Some r -> Hashtbl.copy (Lazy.force r)
       | None -> Hashtbl.create 256
     in
     List.iter
       (fun (guest, p) -> Hashtbl.replace digests guest (Payload.digest (pad_to cluster_size p)))
       local;
     digests)

(* Replace the PVFS file at [path] with the metadata region, [clusters]
   and every snapshot's VM state, padded to [size] bytes (snapshot tables
   etc.), and describe the result. Runs inside the caller's export span. *)
let write_remote t fs ~from ~path ~size ~clusters ~rtable ~rbacking ~rdelta =
  let meta_bytes = header_bytes ~capacity:t.qcapacity ~cluster_size:t.qcluster_size in
  if Pvfs.exists fs ~path then Pvfs.delete fs ~from ~path;
  let file = Pvfs.create fs ~from ~path in
  let vm_states = List.rev_map (fun (_, s) -> s.svm_state) t.snapshots in
  let image = Payload.concat ((Payload.zero meta_bytes :: clusters) @ vm_states) in
  Pvfs.write file ~from ~offset:0 image;
  let written = Payload.length image in
  if written < size then Pvfs.write file ~from ~offset:written (Payload.zero (size - written));
  (* VM state offsets within the exported file, oldest snapshot first. *)
  let snap_offsets =
    let pos = ref (meta_bytes + (List.length clusters * t.qcluster_size)) in
    List.rev_map
      (fun (sname, s) ->
        let off = !pos in
        let len = Payload.length s.svm_state in
        pos := !pos + len;
        (sname, Hashtbl.copy s.stable, (off, len)))
      t.snapshots
  in
  {
    rfs = fs;
    rfile = file;
    rcapacity = t.qcapacity;
    rcluster_size = t.qcluster_size;
    rmeta_bytes = meta_bytes;
    rtable;
    rsnapshots = snap_offsets;
    rbacking;
    rdelta;
    rdigests = effective_digests t;
  }

let export t fs ~from ~path =
  let size = file_size t in
  Obs.Span.with_ t.engine ~component:"qcow2" ~name:"qcow2.export"
    ~attrs:[ ("bytes", Obs.Record.Bytes size) ]
  @@ fun () ->
  Obs.Metrics.add m_export_bytes (float_of_int size);
  (* Read the local file sequentially and stream it into a fresh PVFS
     file, clusters in physical order. *)
  Disk.read t.local_disk ~stream:(local_stream t) size;
  let clusters =
    List.init t.next_phys (fun phys ->
        match Hashtbl.find_opt t.data phys with
        | Some p -> pad_to t.qcluster_size p
        | None -> Payload.zero t.qcluster_size)
  in
  write_remote t fs ~from ~path ~size ~clusters ~rtable:(Hashtbl.copy t.table)
    ~rbacking:t.backing ~rdelta:false

let remote_file_size r = Pvfs.size r.rfile

let remote_vm_state_streamed r ~from ~snapshot_name ~record =
  if record <= 0 then invalid_arg "Qcow2.remote_vm_state_streamed: record";
  let _, _, (off, len) =
    List.find (fun (n, _, _) -> n = snapshot_name) r.rsnapshots
  in
  let rec stream pos acc =
    if pos >= len then Payload.concat (List.rev acc)
    else begin
      let n = min record (len - pos) in
      let part = Pvfs.read r.rfile ~from ~offset:(off + pos) ~len:n in
      stream (pos + n) (part :: acc)
    end
  in
  stream 0 []

let remote_table_of_snapshot r ~snapshot_name =
  let _, table, _ = List.find (fun (n, _, _) -> n = snapshot_name) r.rsnapshots in
  { r with rtable = table }

(* ------------------------------------------------------------------ *)
(* Incremental export (delta chains) and chain collapse *)

let m_delta_bytes = Obs.Metrics.counter ~component:"qcow2" ~name:"delta_bytes"
let m_collapse_bytes = Obs.Metrics.counter ~component:"qcow2" ~name:"collapse_bytes"

let remote_is_delta r = r.rdelta

let remote_chain_depth r =
  let rec depth acc r =
    match r.rbacking with Qcow2_remote b -> depth (acc + 1) b | No_backing | Raw_pvfs _ -> acc
  in
  depth 1 r

let export_incremental t fs ~from ~path ~base =
  if base.rcapacity <> t.qcapacity || base.rcluster_size <> t.qcluster_size then
    invalid_arg "Qcow2.export_incremental: base shape mismatch";
  (* Delta detection by content digest against the base chain's effective
     content: a locally allocated cluster ships only when its digest
     differs from what a reader of [base] would already see there. *)
  let changed =
    (* lint: allow hashtbl-order — result sorted by guest index below *)
    Hashtbl.fold
      (fun guest phys acc ->
        if Hashtbl.find_opt (Lazy.force base.rdigests) guest = Some (guest_digest t phys) then acc
        else (guest, pad_to t.qcluster_size (Hashtbl.find t.data phys)) :: acc)
      t.table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let size =
    header_bytes ~capacity:t.qcapacity ~cluster_size:t.qcluster_size
    + (List.length changed * t.qcluster_size)
    + t.snapshot_meta_bytes
  in
  Obs.Span.with_ t.engine ~component:"qcow2" ~name:"qcow2.export_incremental"
    ~attrs:[ ("bytes", Obs.Record.Bytes size) ]
  @@ fun () ->
  Obs.Metrics.add m_delta_bytes (float_of_int size);
  (* Read only what ships: tables plus the changed clusters. *)
  Disk.read t.local_disk ~stream:(local_stream t) size;
  let rtable = Hashtbl.create (List.length changed) in
  List.iteri (fun pos (guest, _) -> Hashtbl.replace rtable guest pos) changed;
  write_remote t fs ~from ~path ~size ~clusters:(List.map snd changed) ~rtable
    ~rbacking:(Qcow2_remote base) ~rdelta:true

type collapse_stats = {
  levels_collapsed : int;
  clusters_unique : int;
  bytes_shipped : int;
  bytes_reclaimed : int;
}

let collapse_chain tip ~from ~path =
  let rec walk acc r =
    match r.rbacking with
    | Qcow2_remote b -> walk (r :: acc) b
    | No_backing | Raw_pvfs _ -> (List.rev (r :: acc), r.rbacking)
  in
  let levels, base_backing = walk [] tip in
  List.iter
    (fun r ->
      if Pvfs.path r.rfile = path then
        invalid_arg "Qcow2.collapse_chain: target path names a chain level")
    levels;
  (* Union of the per-level tables, top (newest) down, first level wins:
     exactly what a reader of [tip] resolves, minus the chain walk. *)
  let union = Hashtbl.create 256 in
  List.iter
    (fun r ->
      (* lint: allow hashtbl-order — first-wins replace, one hit per key per level *)
      Hashtbl.iter
        (fun guest phys -> if not (Hashtbl.mem union guest) then Hashtbl.replace union guest (r, phys))
        r.rtable)
    levels;
  let guests = Hashtbl.fold (fun g _ acc -> g :: acc) union [] |> List.sort compare in
  let fs = tip.rfs in
  let meta_bytes = tip.rmeta_bytes in
  let size = meta_bytes + (List.length guests * tip.rcluster_size) in
  Obs.Span.with_ (Pvfs.engine fs) ~component:"qcow2" ~name:"qcow2.collapse"
    ~attrs:[ ("levels", Obs.Record.Int (List.length levels)); ("bytes", Obs.Record.Bytes size) ]
  @@ fun () ->
  Obs.Metrics.add m_collapse_bytes (float_of_int size);
  (* Read each unique cluster once, from the level that owns it... *)
  let clusters =
    List.map
      (fun guest ->
        let r, phys = Hashtbl.find union guest in
        Pvfs.read r.rfile ~from ~offset:(r.rmeta_bytes + (phys * r.rcluster_size))
          ~len:r.rcluster_size)
      guests
  in
  (* ...write the standalone result, then retire every chain level. *)
  if Pvfs.exists fs ~path then Pvfs.delete fs ~from ~path;
  let file = Pvfs.create fs ~from ~path in
  Pvfs.write file ~from ~offset:0 (Payload.concat (Payload.zero meta_bytes :: clusters));
  let rtable = Hashtbl.create (List.length guests) in
  List.iteri (fun pos guest -> Hashtbl.replace rtable guest pos) guests;
  let reclaimed = List.fold_left (fun acc r -> acc + Pvfs.size r.rfile) 0 levels in
  List.iter (fun r -> Pvfs.delete fs ~from ~path:(Pvfs.path r.rfile)) levels;
  ( {
      rfs = fs;
      rfile = file;
      rcapacity = tip.rcapacity;
      rcluster_size = tip.rcluster_size;
      rmeta_bytes = meta_bytes;
      rtable;
      rsnapshots = [];
      rbacking = base_backing;
      rdelta = false;
      rdigests = tip.rdigests;
    },
    {
      levels_collapsed = List.length levels;
      clusters_unique = List.length guests;
      bytes_shipped = size;
      bytes_reclaimed = reclaimed;
    } )
