open Simcore
open Netsim
open Storage
open Blobseer

(* A frozen epoch: the dirty set captured copy-on-write at FREEZE time
   (DESIGN.md §17). [f_pending] are the chunks the snapshot must ship;
   their content at freeze time is either still in [local] (untouched
   since) or preserved in [f_store] (the frozen diff log) the first time
   the guest overwrites them. [f_digests] are the frozen chunks' digests
   captured from the live cache, so the background commit can hint the
   client without re-reading guest-mutated bytes. *)
type frozen = {
  f_pending : (int, unit) Hashtbl.t; (* frozen chunks not yet shipped *)
  f_digests : (int, int64) Hashtbl.t; (* digest of frozen content *)
  f_store : Sparse_bytes.t; (* frozen bytes of guest-overwritten chunks *)
  f_copied : (int, unit) Hashtbl.t; (* chunks whose frozen bytes sit in f_store *)
  mutable f_reserved : int; (* local-disk bytes held by f_store *)
  f_skip_chunks : int; (* clean-rewrite absorption carried into the freeze *)
  f_skip_bytes : int;
}

type t = {
  engine : Engine.t;
  host : Net.host;
  local_disk : Disk.t;
  base : Client.blob;
  base_version : int;
  prefetch : Prefetch.t option;
  mname : string;
  capacity : int;
  chunk_size : int;
  local : Sparse_bytes.t; (* chunk cache + COW diffs, chunk-addressed *)
  present : (int, unit) Hashtbl.t; (* chunk locally available *)
  dirty : (int, unit) Hashtbl.t; (* modified since last commit *)
  (* Digest of each present chunk's current local content, carried across
     commit epochs (DESIGN.md §16). Invariants: keys ⊆ present, and every
     entry equals the digest of the chunk's bytes in [local] — audited at
     teardown. Entries are dropped on partial-chunk COW writes (the new
     digest would cost a read-modify-digest) and re-seeded from fetches,
     full-chunk writes and published descriptors. *)
  digests : (int, int64) Hashtbl.t;
  use_cache : bool; (* params.digest_cache: carry digests across epochs *)
  mutable skip_chunks : int; (* clean rewrites absorbed at the device ... *)
  mutable skip_bytes : int; (* ... since the last commit *)
  mutable ckpt : Client.blob option;
  mutable reserved : int; (* local-disk bytes held *)
  mutable last_stats : Client.write_stats; (* most recent commit *)
  mutable total_stats : Client.write_stats; (* cumulative over all commits *)
  mutable frozen : frozen option; (* active frozen epoch, if any *)
  mutable cow_chunks_total : int; (* frozen-chunk copies since creation ... *)
  mutable cow_bytes_total : int; (* ... the live-checkpoint interference cost *)
}

type Engine.audit_subject += Audit_mirror of t

let m_chunks_fetched = Obs.Metrics.counter ~component:"mirror" ~name:"chunks_fetched"
let m_bytes_fetched = Obs.Metrics.counter ~component:"mirror" ~name:"bytes_fetched"
let m_local_bytes = Obs.Metrics.gauge ~component:"mirror" ~name:"local_bytes"
let m_commit_seconds = Obs.Metrics.histogram ~component:"mirror" ~name:"commit_seconds"
let m_frozen_chunks = Obs.Metrics.counter ~component:"mirror" ~name:"frozen_chunks"
let m_cow_chunks = Obs.Metrics.counter ~component:"mirror" ~name:"cow_chunks"
let m_cow_bytes = Obs.Metrics.counter ~component:"mirror" ~name:"cow_bytes"

let create engine ~host ~local_disk ~base ~base_version ?prefetch ~name () =
  let chunk_size = Client.stripe_size base in
  let t = {
    engine;
    host;
    local_disk;
    base;
    base_version;
    prefetch;
    mname = name;
    capacity = Client.capacity base;
    chunk_size;
    local = Sparse_bytes.create ~block_size:chunk_size ();
    present = Hashtbl.create 256;
    dirty = Hashtbl.create 64;
    digests = Hashtbl.create 256;
    use_cache = (Client.params (Client.service base)).Types.digest_cache;
    skip_chunks = 0;
    skip_bytes = 0;
    ckpt = None;
    reserved = 0;
    last_stats = Client.empty_write_stats;
    total_stats = Client.empty_write_stats;
    frozen = None;
    cow_chunks_total = 0;
    cow_bytes_total = 0;
  }
  in
  Engine.register_audit_subject engine (Audit_mirror t);
  t

let name t = t.mname
let capacity t = t.capacity
let chunk_size t = t.chunk_size
let checkpoint_image t = t.ckpt
let dirty_chunks t = Hashtbl.length t.dirty

let chunk_extent t index =
  min t.capacity ((index + 1) * t.chunk_size) - (index * t.chunk_size)

let dirty_bytes t = Hashtbl.fold (fun i () acc -> acc + chunk_extent t i) t.dirty 0 (* lint: allow hashtbl-order — commutative sum *)
let cached_chunks t = Hashtbl.length t.present
let local_bytes t = t.reserved
let frozen_active t = t.frozen <> None

let cow_chunks t = t.cow_chunks_total
let cow_bytes t = t.cow_bytes_total

let sorted_keys tbl = Hashtbl.fold (fun i () acc -> i :: acc) tbl [] |> List.sort compare
let present_view t = sorted_keys t.present
let dirty_view t = sorted_keys t.dirty
let unsafe_mark_dirty t ~chunk = Hashtbl.replace t.dirty chunk ()

let digest_view t =
  (* lint: allow hashtbl-order — sorted below *)
  Hashtbl.fold (fun i d acc -> (i, d) :: acc) t.digests []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let peek_chunk_payload t ~chunk =
  Sparse_bytes.read t.local ~offset:(chunk * t.chunk_size) ~len:(chunk_extent t chunk)

let unsafe_poke_digest t ~chunk digest = Hashtbl.replace t.digests chunk digest

let frozen_pending_view t =
  match t.frozen with None -> [] | Some f -> sorted_keys f.f_pending

let frozen_copied_view t =
  match t.frozen with None -> [] | Some f -> sorted_keys f.f_copied

let frozen_digest_view t =
  match t.frozen with
  | None -> []
  | Some f ->
      (* lint: allow hashtbl-order — sorted below *)
      Hashtbl.fold (fun i d acc -> (i, d) :: acc) f.f_digests []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Where a frozen chunk's freeze-time bytes live: the diff log once the
   guest overwrote it, the live store (still identical) otherwise. *)
let frozen_source t f index = if Hashtbl.mem f.f_copied index then f.f_store else t.local

let peek_frozen_payload t ~chunk =
  match t.frozen with
  | None -> invalid_arg "Mirror.peek_frozen_payload: no frozen epoch"
  | Some f ->
      Sparse_bytes.read (frozen_source t f chunk) ~offset:(chunk * t.chunk_size)
        ~len:(chunk_extent t chunk)

let local_stream t = Net.host_id t.host

let reserve_local t bytes =
  Disk.reserve t.local_disk bytes;
  t.reserved <- t.reserved + bytes;
  Obs.Metrics.set m_local_bytes t.reserved

let drop_local_state t =
  Disk.free t.local_disk t.reserved;
  t.reserved <- 0;
  Obs.Metrics.set m_local_bytes 0;
  Hashtbl.reset t.present;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.digests;
  t.frozen <- None;
  Sparse_bytes.clear t.local

(* Bring chunk [index] into the local cache, lazily. The fetch is coalesced
   through the prefetcher when the chunk is shared with other instances. *)
let ensure_present t index =
  if not (Hashtbl.mem t.present index) then begin
    let extent = chunk_extent t index in
    let fetch_plain () =
      Client.read_chunk t.base ~from:t.host ~version:t.base_version ~chunk:index
    in
    let payload =
      match (t.prefetch, Client.chunk_identity t.base ~version:t.base_version ~chunk:index) with
      | Some prefetch, Some key ->
          let provider_host =
            Option.get (Client.chunk_host t.base ~version:t.base_version ~chunk:index)
          in
          Prefetch.fetch prefetch ~self:t.host ~key ~provider_host ~fetch_fn:fetch_plain
      | _ -> fetch_plain ()
    in
    assert (Payload.length payload = extent);
    Obs.Metrics.incr m_chunks_fetched;
    Obs.Metrics.add m_bytes_fetched (float_of_int extent);
    (* Cache fill: write-through to the local disk. *)
    reserve_local t extent;
    Disk.write t.local_disk ~stream:(local_stream t) extent;
    Disk.free t.local_disk extent;
    Sparse_bytes.write t.local ~offset:(index * t.chunk_size) payload;
    Hashtbl.replace t.present index ();
    (* Seed the digest cache: the read already verified this digest against
       the descriptor, so it is memoized on the payload — no extra work. *)
    if t.use_cache then Hashtbl.replace t.digests index (Payload.digest payload)
  end

let check_range t offset len =
  if offset < 0 || len < 0 || offset + len > t.capacity then
    invalid_arg "Mirror: range out of bounds"

let read t ~offset ~len =
  check_range t offset len;
  if len = 0 then Payload.zero 0
  else begin
    let cs = t.chunk_size in
    let first = offset / cs and last = (offset + len - 1) / cs in
    for index = first to last do
      ensure_present t index
    done;
    Disk.read t.local_disk ~stream:(local_stream t) len;
    Sparse_bytes.read t.local ~offset ~len
  end

(* A guest write is about to land on chunk [index] while a frozen epoch is
   active: if the chunk is frozen-pending and its frozen bytes have not
   been preserved yet, copy them into the frozen diff log first. The extra
   local-disk read + write is charged on the guest's stream — this is the
   application-interference cost of checkpointing live. *)
let preserve_frozen t index =
  match t.frozen with
  | Some f when Hashtbl.mem f.f_pending index && not (Hashtbl.mem f.f_copied index) ->
      let extent = chunk_extent t index in
      Disk.read t.local_disk ~stream:(local_stream t) extent;
      let frozen_bytes =
        Sparse_bytes.read t.local ~offset:(index * t.chunk_size) ~len:extent
      in
      reserve_local t extent;
      Disk.write t.local_disk ~stream:(local_stream t) extent;
      Disk.free t.local_disk extent;
      Sparse_bytes.write f.f_store ~offset:(index * t.chunk_size) frozen_bytes;
      Hashtbl.replace f.f_copied index ();
      f.f_reserved <- f.f_reserved + extent;
      t.cow_chunks_total <- t.cow_chunks_total + 1;
      t.cow_bytes_total <- t.cow_bytes_total + extent;
      Obs.Metrics.incr m_cow_chunks;
      Obs.Metrics.add m_cow_bytes (float_of_int extent)
  | _ -> ()

let write t ~offset payload =
  let len = Payload.length payload in
  check_range t offset len;
  if len > 0 then begin
    let cs = t.chunk_size in
    let first = offset / cs and last = (offset + len - 1) / cs in
    (* The device write is charged for the full request regardless of what
       the digest cache absorbs below: the guest cannot know the content was
       unchanged, so the local-disk cost is real either way. *)
    Disk.write t.local_disk ~stream:(local_stream t) len;
    Disk.free t.local_disk len;
    for index = first to last do
      let cstart = index * cs in
      let extent = chunk_extent t index in
      let wstart = max cstart offset and wend = min (cstart + extent) (offset + len) in
      let slice = Payload.sub payload ~pos:(wstart - offset) ~len:(wend - wstart) in
      let covers_whole = wstart = cstart && wend = cstart + extent in
      if covers_whole && t.use_cache then begin
        let d = Payload.digest slice in
        match Hashtbl.find_opt t.digests index with
        | Some cached when cached = d && Hashtbl.mem t.present index ->
            (* Clean rewrite absorbed at the device: the chunk already holds
               exactly these bytes, so it stays out of the dirty set and the
               next commit never reads, digests or ships it. *)
            t.skip_chunks <- t.skip_chunks + 1;
            t.skip_bytes <- t.skip_bytes + extent;
            Client.note_digest_skipped (Client.service t.base) ~chunks:1 ~bytes:extent
        | _ ->
            if not (Hashtbl.mem t.present index) then begin
              reserve_local t extent;
              Hashtbl.replace t.present index ()
            end;
            preserve_frozen t index;
            Hashtbl.replace t.dirty index ();
            Hashtbl.replace t.digests index d;
            Sparse_bytes.write t.local ~offset:wstart slice
      end
      else begin
        (* A partial write to a chunk we do not hold needs its old content
           (copy-on-write); a full overwrite does not. *)
        if not covers_whole then ensure_present t index
        else if not (Hashtbl.mem t.present index) then begin
          reserve_local t extent;
          Hashtbl.replace t.present index ()
        end;
        preserve_frozen t index;
        Hashtbl.replace t.dirty index ();
        (* The chunk's new digest would cost a read-modify-digest here;
           invalidate instead — the commit path re-digests it once. *)
        if not covers_whole then Hashtbl.remove t.digests index;
        Sparse_bytes.write t.local ~offset:wstart slice
      end
    done
  end

let device t =
  {
    Block_dev.capacity = t.capacity;
    read = (fun ~offset ~len -> read t ~offset ~len);
    write = (fun ~offset payload -> write t ~offset payload);
    flush = (fun () -> ());
  }

let taint_all t =
  (* lint: allow hashtbl-order — independent per-key marking *)
  Hashtbl.iter (fun index () -> Hashtbl.replace t.dirty index ()) t.present;
  (* The ablation baseline must pay the full re-digest + re-ship cost:
     carried digests would let the commit path suppress everything from
     cache hits, quietly turning the baseline incremental again. *)
  Hashtbl.reset t.digests

let clone t =
  match t.ckpt with
  | Some _ -> ()
  | None ->
      Trace.emit t.engine ~component:t.mname "CLONE from blob %d v%d"
        (Client.blob_id t.base) t.base_version;
      t.ckpt <- Some (Client.clone t.base ~from:t.host ~version:t.base_version)

(* ------------------------------------------------------------------ *)
(* FREEZE / frozen COMMIT / abort (DESIGN.md §17) *)

let freeze t =
  if t.frozen <> None then invalid_arg "Mirror.freeze: a frozen epoch is already active";
  let f_pending = Hashtbl.copy t.dirty in
  let f_digests = Hashtbl.create (max 16 (Hashtbl.length f_pending)) in
  if t.use_cache then
    (* lint: allow hashtbl-order — independent per-key copy *)
    Hashtbl.iter
      (fun i () ->
        match Hashtbl.find_opt t.digests i with
        | Some d -> Hashtbl.replace f_digests i d
        | None -> ())
      f_pending;
  t.frozen <-
    Some
      {
        f_pending;
        f_digests;
        f_store = Sparse_bytes.create ~block_size:t.chunk_size ();
        f_copied = Hashtbl.create 16;
        f_reserved = 0;
        f_skip_chunks = t.skip_chunks;
        f_skip_bytes = t.skip_bytes;
      };
  Hashtbl.reset t.dirty;
  t.skip_chunks <- 0;
  t.skip_bytes <- 0;
  Obs.Metrics.add m_frozen_chunks (float_of_int (Hashtbl.length f_pending));
  Trace.emit t.engine ~component:t.mname "FREEZE %d dirty chunk(s) copy-on-write"
    (Hashtbl.length f_pending)

let release_diff_log t f =
  Disk.free t.local_disk f.f_reserved;
  t.reserved <- t.reserved - f.f_reserved;
  Obs.Metrics.set m_local_bytes t.reserved

(* Push the frozen chunks into the checkpoint image as one incremental
   snapshot. One job per chunk: the local-disk read happens inside the
   client's write window, so reading chunk N+1 off the local disk overlaps
   with digesting, dedup resolution and repository writes of chunk N — no
   up-front materialization of the whole diff. Each chunk is read from the
   frozen diff log when the guest overwrote it since the freeze, from the
   live store otherwise. *)
let commit_frozen ?(label = "ckpt.commit") t =
  let f =
    match t.frozen with
    | Some f -> f
    | None -> invalid_arg "Mirror.commit_frozen: no frozen epoch"
  in
  Obs.Span.with_ t.engine ~component:"mirror" ~name:label
    ~attrs:[ ("frozen_chunks", Obs.Record.Int (Hashtbl.length f.f_pending)) ]
  @@ fun () ->
  let started = Engine.now t.engine in
  let indices = sorted_keys f.f_pending in
  (* Digests captured at freeze time become hints: they describe the frozen
     content even after the guest moved the live bytes on, so the client
     suppresses clean rewrites and resolves dedup exactly without running
     the thunk — a hinted chunk that doesn't ship never touches the local
     disk either. *)
  let hints =
    if not t.use_cache then []
    else
      List.filter_map
        (fun index ->
          Option.map (fun d -> (index, d)) (Hashtbl.find_opt f.f_digests index))
        indices
  in
  Obs.Span.with_ t.engine ~component:"mirror" ~name:"ckpt.clone" (fun () -> clone t);
  let ckpt = Option.get t.ckpt in
  let jobs =
    List.map
      (fun index ->
        let extent = chunk_extent t index in
        ( index,
          fun () ->
            Disk.read t.local_disk ~stream:(local_stream t) extent;
            Sparse_bytes.read (frozen_source t f index) ~offset:(index * t.chunk_size)
              ~len:extent ))
      indices
  in
  let version, stats = Client.write_chunks ckpt ~from:t.host ~suppress_clean:true ~hints jobs in
  (* Fold the write-time clean skips into the commit accounting: a rewrite
     absorbed at the device is the same event the digest path would have
     suppressed, observed earlier. *)
  let stats =
    if f.f_skip_chunks = 0 then stats
    else
      {
        stats with
        Client.chunks_total = stats.Client.chunks_total + f.f_skip_chunks;
        chunks_suppressed = stats.Client.chunks_suppressed + f.f_skip_chunks;
        bytes_suppressed = stats.Client.bytes_suppressed + f.f_skip_bytes;
      }
  in
  (* Re-seed invalidated entries (partial-chunk COW writes) from the
     descriptors this commit just minted — a free metadata peek, so the
     next epoch's hints cover them again. Guest-overwritten frozen chunks
     are skipped: their live bytes moved on since the freeze. *)
  if t.use_cache then begin
    let tree = Client.tree ckpt ~version in
    List.iter
      (fun index ->
        if not (Hashtbl.mem f.f_copied index || Hashtbl.mem t.digests index) then
          match Segment_tree.get tree index with
          | Some (d : Types.chunk_desc) -> Hashtbl.replace t.digests index d.digest
          | None -> ())
      indices
  end;
  (* Success: the repository holds the frozen content, so the diff log's
     preserved copies can go. A failure above leaves the frozen epoch
     intact — the caller either retries (transient) or {!abort_frozen}s. *)
  release_diff_log t f;
  t.frozen <- None;
  t.last_stats <- stats;
  t.total_stats <- Client.add_write_stats t.total_stats stats;
  Trace.emit t.engine ~component:t.mname
    "COMMIT %d chunks: %d shipped (%d B), %d dedup'd (%d B), %d clean (%d B) -> v%d"
    stats.Client.chunks_total stats.Client.chunks_shipped stats.Client.bytes_shipped
    stats.Client.chunks_deduped stats.Client.bytes_deduped stats.Client.chunks_suppressed
    stats.Client.bytes_suppressed version;
  Obs.Metrics.observe m_commit_seconds (Engine.now t.engine -. started);
  version

let abort_frozen t =
  match t.frozen with
  | None -> ()
  | Some f ->
      (* Fold the unshipped frozen chunks back into the live dirty set: the
         last fully committed snapshot stays authoritative, and the next
         commit ships the chunks' current bytes. The preserved frozen
         copies are dropped — they described a snapshot that will never be
         completed. *)
      (* lint: allow hashtbl-order — independent per-key marking *)
      Hashtbl.iter (fun i () -> Hashtbl.replace t.dirty i ()) f.f_pending;
      release_diff_log t f;
      t.skip_chunks <- t.skip_chunks + f.f_skip_chunks;
      t.skip_bytes <- t.skip_bytes + f.f_skip_bytes;
      t.frozen <- None;
      Trace.emit t.engine ~component:t.mname
        "FREEZE aborted: %d chunk(s) folded back into the dirty set"
        (Hashtbl.length f.f_pending)

(* The stop-the-world COMMIT is the zero-round case of the live path: with
   the guest suspended no copy-on-write fires between the freeze and the
   ship, so this publishes exactly the dirty set as it stood. A failure
   folds the epoch back, leaving the dirty set as it was for the retry. *)
let commit t =
  freeze t;
  match commit_frozen t with
  | version -> version
  | exception exn ->
      abort_frozen t;
      raise exn

let last_commit_stats t = t.last_stats
let total_commit_stats t = t.total_stats
