open Simcore
open Netsim
open Storage
open Blobseer

(* Per-chunk state is kept densely, indexed by chunk in [0, n) with [n] the
   image's chunk count (DESIGN.md §16). A set is one byte per chunk plus a
   live count; iteration runs in ascending chunk order, so every view and
   the commit's chunk list come out sorted without a sort. The byte array
   is allocated on the first [add] and released by [clear]: the engine keeps
   every mirror it ever created reachable through its audit, so the state
   of a dropped mirror must not stay [n]-sized. *)
module Chunk_set = struct
  type t = { n : int; mutable marks : Bytes.t; mutable count : int }

  let create n = { n; marks = Bytes.empty; count = 0 }
  let cardinal s = s.count
  let[@inline] mem s i = i < Bytes.length s.marks && Bytes.get s.marks i <> '\000'

  let add s i =
    if Bytes.length s.marks = 0 then s.marks <- Bytes.make s.n '\000';
    if Bytes.get s.marks i = '\000' then begin
      Bytes.set s.marks i '\001';
      s.count <- s.count + 1
    end

  let remove s i =
    if mem s i then begin
      Bytes.set s.marks i '\000';
      s.count <- s.count - 1
    end

  let clear s =
    s.marks <- Bytes.empty;
    s.count <- 0

  (* Move the contents into a new set and leave [s] empty, without copying. *)
  let take s =
    let moved = { n = s.n; marks = s.marks; count = s.count } in
    clear s;
    moved

  let iter f s =
    if s.count > 0 then
      for i = 0 to Bytes.length s.marks - 1 do
        if Bytes.get s.marks i <> '\000' then f i
      done

  let elements s =
    let acc = ref [] in
    if s.count > 0 then
      for i = Bytes.length s.marks - 1 downto 0 do
        if Bytes.get s.marks i <> '\000' then acc := i :: !acc
      done;
    !acc
end

(* Chunk -> digest: a key set beside the digests stored unboxed, 8 bytes
   per chunk, allocated and released with the keys. *)
module Digest_map = struct
  type t = { keys : Chunk_set.t; mutable digests : Bytes.t }

  let create n = { keys = Chunk_set.create n; digests = Bytes.empty }
  let[@inline] mem m i = Chunk_set.mem m.keys i
  let[@inline] get m i = Bytes.get_int64_le m.digests (i * 8)
  let find_opt m i = if mem m i then Some (get m i) else None

  let set m i d =
    if Bytes.length m.digests = 0 then m.digests <- Bytes.create (8 * m.keys.n);
    Chunk_set.add m.keys i;
    Bytes.set_int64_le m.digests (i * 8) d

  let remove m i = Chunk_set.remove m.keys i

  let clear m =
    Chunk_set.clear m.keys;
    m.digests <- Bytes.empty

  let bindings m = List.map (fun i -> (i, get m i)) (Chunk_set.elements m.keys)
end

type snapshot = {
  present : int list;
  dirty : int list;
  digests : (int * int64) list;
  frozen_pending : int list;
  frozen_copied : int list;
  frozen_digests : (int * int64) list;
  cow_chunks : int;
  local_bytes : int;
}

(* A frozen epoch: the dirty set captured copy-on-write at FREEZE time
   (DESIGN.md §17). [f_pending] are the chunks the snapshot must ship;
   their content at freeze time is either still in [local] (untouched
   since) or preserved in [f_store] (the frozen diff log) the first time
   the guest overwrites them. [f_digests] are the frozen chunks' digests
   captured from the live cache, so the background commit can hint the
   client without re-reading guest-mutated bytes. *)
type frozen = {
  f_pending : Chunk_set.t; (* frozen chunks not yet shipped *)
  f_digests : Digest_map.t; (* digest of frozen content *)
  f_store : Sparse_bytes.t; (* frozen bytes of guest-overwritten chunks *)
  f_copied : Chunk_set.t; (* chunks whose frozen bytes sit in f_store *)
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
  present : Chunk_set.t; (* chunk locally available *)
  dirty : Chunk_set.t; (* modified since last commit *)
  (* Digest of each present chunk's current local content, carried across
     commit epochs (DESIGN.md §16). Invariants: keys ⊆ present, and every
     entry equals the digest of the chunk's bytes in [local] — audited at
     teardown. Entries are dropped on partial-chunk COW writes (the new
     digest would cost a read-modify-digest) and re-seeded from fetches,
     full-chunk writes and published descriptors. *)
  digests : Digest_map.t;
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

let m_chunks_fetched = Obs.Metrics.counter ~component:"mirror" ~name:"chunks_fetched"
let m_bytes_fetched = Obs.Metrics.counter ~component:"mirror" ~name:"bytes_fetched"
let m_local_bytes = Obs.Metrics.gauge ~component:"mirror" ~name:"local_bytes"
let m_commit_seconds = Obs.Metrics.histogram ~component:"mirror" ~name:"commit_seconds"
let m_frozen_chunks = Obs.Metrics.counter ~component:"mirror" ~name:"frozen_chunks"
let m_cow_chunks = Obs.Metrics.counter ~component:"mirror" ~name:"cow_chunks"
let m_cow_bytes = Obs.Metrics.counter ~component:"mirror" ~name:"cow_bytes"

let capacity t = t.capacity
let chunk_size t = t.chunk_size
let checkpoint_image t = t.ckpt

let chunk_extent t index =
  min t.capacity ((index + 1) * t.chunk_size) - (index * t.chunk_size)

(* Every dirty chunk is whole except possibly the image's last one. *)
let dirty_bytes t =
  let last = t.dirty.n - 1 in
  (Chunk_set.cardinal t.dirty * t.chunk_size)
  - if last >= 0 && Chunk_set.mem t.dirty last then t.chunk_size - chunk_extent t last else 0

let frozen_active t = t.frozen <> None
let cow_bytes t = t.cow_bytes_total

let snapshot t : snapshot =
  let frozen view = match t.frozen with None -> [] | Some f -> view f in
  {
    present = Chunk_set.elements t.present;
    dirty = Chunk_set.elements t.dirty;
    digests = Digest_map.bindings t.digests;
    frozen_pending = frozen (fun f -> Chunk_set.elements f.f_pending);
    frozen_copied = frozen (fun f -> Chunk_set.elements f.f_copied);
    frozen_digests = frozen (fun f -> Digest_map.bindings f.f_digests);
    cow_chunks = t.cow_chunks_total;
    local_bytes = t.reserved;
  }

let unsafe_mark_dirty t ~chunk = Chunk_set.add t.dirty chunk
let unsafe_poke_digest t ~chunk digest = Digest_map.set t.digests chunk digest

(* Where a frozen chunk's freeze-time bytes live: the diff log once the
   guest overwrote it, the live store (still identical) otherwise. *)
let frozen_source t f index = if Chunk_set.mem f.f_copied index then f.f_store else t.local

(* A chunk's bytes in [store], free of simulated cost: the audit's ground
   truth for recomputing cached digests. *)
let peek_chunk t store chunk =
  Sparse_bytes.read store ~offset:(chunk * t.chunk_size) ~len:(chunk_extent t chunk)

(* COW audit (paper §3.2): a chunk can only be dirty if it is locally
   present — commit reads dirty chunks back from the local cache, so a
   dirty absent chunk would push garbage into the checkpoint image. The
   carried digest cache owes the same subset discipline, and its entries
   must agree with a fresh digest of the chunk's current local bytes — a
   stale entry would let the next commit suppress or dedup a chunk on the
   wrong digest. Recomputation is sampled deterministically (every
   stride-th entry, ≤ ~64 recomputes) to bound teardown cost. *)
let sampled cache =
  let stride = max 1 (List.length cache / 64) in
  List.filteri (fun i _ -> i mod stride = 0) cache

let audit t =
  let v invariant fmt = Engine.violation ~subject:("mirror:" ^ t.mname) invariant fmt in
  let present = Chunk_set.mem t.present in
  let dirty =
    List.filter_map
      (fun chunk ->
        if present chunk then None
        else Some (v "dirty-subset-present" "chunk %d dirty but not locally present" chunk))
      (Chunk_set.elements t.dirty)
  in
  let cache = Digest_map.bindings t.digests in
  let subset =
    List.filter_map
      (fun (chunk, _) ->
        if present chunk then None
        else
          Some (v "digest-subset-present" "chunk %d digest-cached but not locally present" chunk))
      cache
  in
  let coherent =
    List.filter_map
      (fun (chunk, cached) ->
        if not (present chunk) then None
        else
          let fresh = Payload.digest (peek_chunk t t.local chunk) in
          if fresh = cached then None
          else
            Some
              (v "digest-cache-coherent" "chunk %d cached digest %Lx, current bytes digest %Lx"
                 chunk cached fresh))
      (sampled cache)
  in
  (* Frozen-epoch liveness (live checkpointing, DESIGN.md §17): every
     frozen-pending chunk must still be locally present, the diff log may
     only hold chunks of the pending set, and digests captured at freeze
     time must describe the frozen bytes — on both forks of the clone
     boundary (diff log and live store). A teardown with a frozen epoch
     still active means a background commit was neither finished nor
     rolled back. *)
  let frozen =
    match t.frozen with
    | None -> []
    | Some f ->
        let pending = Chunk_set.mem f.f_pending in
        let pending_view = Chunk_set.elements f.f_pending in
        v "frozen-resolved" "frozen epoch with %d chunk(s) never committed or aborted"
          (List.length pending_view)
        :: List.filter_map
             (fun chunk ->
               if present chunk then None
               else
                 Some
                   (v "frozen-subset-present" "chunk %d frozen-pending but not locally present"
                      chunk))
             pending_view
        @ List.filter_map
            (fun chunk ->
              if pending chunk then None
              else
                Some
                  (v "copied-subset-frozen"
                     "chunk %d in the frozen diff log but not frozen-pending" chunk))
            (Chunk_set.elements f.f_copied)
        @ List.filter_map
            (fun (chunk, cached) ->
              if not (pending chunk) then
                Some
                  (v "frozen-digest-subset" "chunk %d frozen-digest-cached but not frozen-pending"
                     chunk)
              else
                let fresh = Payload.digest (peek_chunk t (frozen_source t f chunk) chunk) in
                if fresh = cached then None
                else
                  Some
                    (v "frozen-digest-coherent"
                       "chunk %d frozen digest %Lx, frozen bytes digest %Lx" chunk cached fresh))
            (sampled (Digest_map.bindings f.f_digests))
  in
  dirty @ subset @ coherent @ frozen

let create engine ~host ~local_disk ~base ~base_version ?prefetch ~name () =
  let chunk_size = Client.stripe_size base in
  let capacity = Client.capacity base in
  let chunks = Size.div_ceil capacity chunk_size in
  let t = {
    engine;
    host;
    local_disk;
    base;
    base_version;
    prefetch;
    mname = name;
    capacity;
    chunk_size;
    local = Sparse_bytes.create ~block_size:chunk_size ();
    present = Chunk_set.create chunks;
    dirty = Chunk_set.create chunks;
    digests = Digest_map.create chunks;
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
  Engine.register_audit engine (fun () -> audit t);
  t

let local_stream t = Net.host_id t.host

let reserve_local t bytes =
  Disk.reserve t.local_disk bytes;
  t.reserved <- t.reserved + bytes;
  Obs.Metrics.set m_local_bytes t.reserved

let drop_local_state t =
  Disk.free t.local_disk t.reserved;
  t.reserved <- 0;
  Obs.Metrics.set m_local_bytes 0;
  Chunk_set.clear t.present;
  Chunk_set.clear t.dirty;
  Digest_map.clear t.digests;
  t.frozen <- None;
  Sparse_bytes.clear t.local

(* Bring chunk [index] into the local cache, lazily. The fetch is coalesced
   through the prefetcher when the chunk is shared with other instances. *)
let ensure_present t index =
  if not (Chunk_set.mem t.present index) then begin
    let extent = chunk_extent t index in
    let fetch_plain () =
      Client.read_chunk t.base ~from:t.host ~version:t.base_version ~chunk:index
    in
    let payload =
      match (t.prefetch, Client.chunk_identity t.base ~version:t.base_version ~chunk:index) with
      | Some prefetch, Some (key, provider_host) ->
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
    Chunk_set.add t.present index;
    (* Seed the digest cache: the read already verified this digest against
       the descriptor, so it is memoized on the payload — no extra work. *)
    if t.use_cache then Digest_map.set t.digests index (Payload.digest payload)
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
  | Some f when Chunk_set.mem f.f_pending index && not (Chunk_set.mem f.f_copied index) ->
      let extent = chunk_extent t index in
      Disk.read t.local_disk ~stream:(local_stream t) extent;
      let frozen_bytes =
        Sparse_bytes.read t.local ~offset:(index * t.chunk_size) ~len:extent
      in
      reserve_local t extent;
      Disk.write t.local_disk ~stream:(local_stream t) extent;
      Disk.free t.local_disk extent;
      Sparse_bytes.write f.f_store ~offset:(index * t.chunk_size) frozen_bytes;
      Chunk_set.add f.f_copied index;
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
        if
          Digest_map.mem t.digests index
          && Int64.equal (Digest_map.get t.digests index) d
          && Chunk_set.mem t.present index
        then begin
          (* Clean rewrite absorbed at the device: the chunk already holds
             exactly these bytes, so it stays out of the dirty set and the
             next commit never reads, digests or ships it. *)
          t.skip_chunks <- t.skip_chunks + 1;
          t.skip_bytes <- t.skip_bytes + extent;
          Client.note_digest_skipped (Client.service t.base) ~chunks:1 ~bytes:extent
        end
        else begin
          if not (Chunk_set.mem t.present index) then begin
            reserve_local t extent;
            Chunk_set.add t.present index
          end;
          preserve_frozen t index;
          Chunk_set.add t.dirty index;
          Digest_map.set t.digests index d;
          Sparse_bytes.write t.local ~offset:wstart slice
        end
      end
      else begin
        (* A partial write to a chunk we do not hold needs its old content
           (copy-on-write); a full overwrite does not. *)
        if not covers_whole then ensure_present t index
        else if not (Chunk_set.mem t.present index) then begin
          reserve_local t extent;
          Chunk_set.add t.present index
        end;
        preserve_frozen t index;
        Chunk_set.add t.dirty index;
        (* The chunk's new digest would cost a read-modify-digest here;
           invalidate instead — the commit path re-digests it once. *)
        if not covers_whole then Digest_map.remove t.digests index;
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
  Chunk_set.iter (Chunk_set.add t.dirty) t.present;
  (* The ablation baseline must pay the full re-digest + re-ship cost:
     carried digests would let the commit path suppress everything from
     cache hits, quietly turning the baseline incremental again. *)
  Digest_map.clear t.digests

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
  (* The dirty set moves into the epoch as is; the live one restarts empty. *)
  let f_pending = Chunk_set.take t.dirty in
  let f_digests = Digest_map.create f_pending.n in
  if t.use_cache then
    Chunk_set.iter
      (fun i ->
        if Digest_map.mem t.digests i then Digest_map.set f_digests i (Digest_map.get t.digests i))
      f_pending;
  t.frozen <-
    Some
      {
        f_pending;
        f_digests;
        f_store = Sparse_bytes.create ~block_size:t.chunk_size ();
        f_copied = Chunk_set.create f_pending.n;
        f_reserved = 0;
        f_skip_chunks = t.skip_chunks;
        f_skip_bytes = t.skip_bytes;
      };
  t.skip_chunks <- 0;
  t.skip_bytes <- 0;
  Obs.Metrics.add m_frozen_chunks (float_of_int (Chunk_set.cardinal f_pending));
  Trace.emit t.engine ~component:t.mname "FREEZE %d dirty chunk(s) copy-on-write"
    (Chunk_set.cardinal f_pending)

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
    ~attrs:[ ("frozen_chunks", Obs.Record.Int (Chunk_set.cardinal f.f_pending)) ]
  @@ fun () ->
  let started = Engine.now t.engine in
  let indices = Chunk_set.elements f.f_pending in
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
          Option.map (fun d -> (index, d)) (Digest_map.find_opt f.f_digests index))
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
        if not (Chunk_set.mem f.f_copied index || Digest_map.mem t.digests index) then
          match Segment_tree.get tree index with
          | Some (d : Types.chunk_desc) -> Digest_map.set t.digests index d.digest
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
      Chunk_set.iter (Chunk_set.add t.dirty) f.f_pending;
      release_diff_log t f;
      t.skip_chunks <- t.skip_chunks + f.f_skip_chunks;
      t.skip_bytes <- t.skip_bytes + f.f_skip_bytes;
      t.frozen <- None;
      Trace.emit t.engine ~component:t.mname
        "FREEZE aborted: %d chunk(s) folded back into the dirty set"
        (Chunk_set.cardinal f.f_pending)

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
