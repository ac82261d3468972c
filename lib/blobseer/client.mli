(** BlobSeer deployment and client-side BLOB API.

    A deployment aggregates one version manager, one provider manager, a
    pool of metadata providers and a data provider on (typically) every
    compute node. Clients manipulate BLOBs — large flat byte spaces stored
    striped across the data providers — with versioning semantics:

    - {!write} never overwrites: it stores new chunks and publishes a new
      snapshot version whose metadata shares everything untouched with its
      base ({e shadowing});
    - {!clone} forks a BLOB from any snapshot without copying data;
    - {!read} addresses any published version, forever immutable.

    All operations block the calling fiber for the simulated cost of the
    network transfers, disk I/O and service queueing they cause. *)

open Simcore
open Netsim
open Storage

type t
type blob

val deploy :
  Engine.t ->
  Net.t ->
  params:Types.params ->
  version_manager_host:Net.host ->
  provider_manager_host:Net.host ->
  metadata_hosts:Net.host list ->
  data_providers:(Net.host * Disk.t) list ->
  t
(** Stand up a BlobSeer service. [data_providers] associates each provider
    with the host it runs on and the local disk it stores chunks on. The
    deployment registers its durability audit (replica placement,
    checksums, dedup refcounts, journal quiescence) with the engine's
    teardown audits ({!Engine.audit}). *)

val engine : t -> Engine.t
(** The engine the deployment runs on. *)

val params : t -> Types.params
(** The parameters the deployment was stood up with. *)

val data_provider : t -> int -> Data_provider.t
(** The [i]-th data provider (deployment order). *)

val data_providers : t -> Data_provider.t array
(** All data providers, in deployment order. *)

val version_manager : t -> Version_manager.t
(** The deployment's version manager. *)

val metadata_service : t -> Metadata_service.t
(** The deployment's metadata provider pool. *)

val provider_manager : t -> Provider_manager.t
(** The deployment's provider manager (placement + dedup index). *)

val integrity_failures : t -> int
(** Chunk reads whose payload digest did not match the descriptor's —
    silently corrupted replicas detected (and failed over) by clients of
    this deployment. *)

val repository_bytes : t -> int
(** Physical bytes held across all data providers — the storage-space
    metric of the paper's Figures 4 and 5(b). *)

(** {1 BLOB operations} *)

val create_blob : t -> from:Net.host -> capacity:int -> blob
(** Allocate a fresh BLOB (version 0 is the empty snapshot); one
    round-trip to the version manager. *)

val open_blob : t -> from:Net.host -> id:int -> blob
(** A handle to an existing BLOB by id; one round-trip to the version
    manager. Raises [Not_found] for unknown ids. *)

val blob_id : blob -> int
(** The BLOB's deployment-unique id. *)

val capacity : blob -> int
(** The byte capacity fixed at creation. *)

val stripe_size : blob -> int
(** The chunking granularity (from {!Types.params}). *)

val service : blob -> t
(** The deployment this handle belongs to. *)

val latest_version : blob -> from:Net.host -> int
(** Most recently published version; one round-trip to the version
    manager. *)

val versions : blob -> int list
(** Every published version, ascending. Cost-free metadata peek. *)

val write : blob -> from:Net.host -> offset:int -> Payload.t -> int
(** [write blob ~from ~offset payload] stores the payload (striped,
    replicated, in parallel up to the client window) as a snapshot derived
    from the current latest version and returns the new version
    number. Partial-stripe updates read–modify–write the affected chunks.
    Raises [Invalid_argument] when the range exceeds the blob capacity. *)

val read : blob -> from:Net.host -> version:int -> offset:int -> len:int -> Payload.t
(** Never-written ranges read as zeros. Prefers a chunk replica hosted on
    [from] (a local read costs no network). Raises
    {!Types.Provider_down} when all replicas of a needed chunk are dead. *)

(** Per-write accounting returned by {!write_chunks}: how many chunks
    (and payload bytes) were physically shipped, satisfied by the dedup
    index, or suppressed as clean rewrites. *)
type write_stats = {
  chunks_total : int;
  chunks_shipped : int;
  chunks_deduped : int;
  chunks_suppressed : int;
  bytes_shipped : int;
  bytes_deduped : int;
  bytes_suppressed : int;
}

val empty_write_stats : write_stats
(** All counters zero. *)

val add_write_stats : write_stats -> write_stats -> write_stats
(** Field-wise sum (accumulating stats across commits). *)

val write_chunks :
  blob ->
  from:Net.host ->
  ?base:int ->
  ?suppress_clean:bool ->
  ?hints:(int * int64) list ->
  (int * (unit -> Payload.t)) list ->
  int * write_stats
(** [write_chunks blob ~from jobs] publishes one new version from
    whole-chunk jobs [(chunk index, content thunk)] — the mirroring
    module's pipelined [COMMIT] path. Thunks run {e inside} the write
    window, so per-chunk content production (e.g. the local-disk read of
    a dirty chunk) is pipelined with digesting, dedup resolution and
    replica writes of other chunks; each thunk must return exactly the
    chunk's extent. With [~suppress_clean:true], a chunk whose content
    digest equals the base version's descriptor (or all-zero content on
    an unwritten leaf) is dropped from the update entirely — a clean
    rewrite publishes no new descriptor and ships nothing. Chunk indices
    must be distinct.

    [hints] maps chunk indices to the digest of the content their thunk
    will produce (the mirror's digest cache, carried across epochs).
    Hinted chunks resolve clean-rewrite suppression and dedup from the
    digest alone: suppressed and dedup-hit chunks never run their thunk
    (no payload read, no digest), and all hinted dedup lookups share one
    batched provider-manager round trip. Only chunks that must physically
    ship produce content, which is verified against the hint
    ([Invalid_argument] on mismatch — a cache-coherence bug at the
    caller). Ignored when [params.digest_cache] is off. *)

val dedup_stats : t -> Dedup_index.stats
(** Deployment-wide dedup counters (hits, misses, bytes saved, live index
    entries). *)

(** Commit-path digest-work accounting: chunks whose digest was computed
    from content bytes (digested), reused from a carried hint (cached), or
    never needed at all (skipped — clean rewrites caught by a hint or at
    the mirror before reaching the client). *)
type digest_stats = {
  chunks_digested : int;
  chunks_cached : int;
  chunks_skipped : int;
  bytes_digested : int;
  bytes_cached : int;
  bytes_skipped : int;
}

val digest_stats : t -> digest_stats
(** Deployment-lifetime digest-work counters (also mirrored into the
    [blob.digest_*] metrics). *)

val note_digest_skipped : t -> chunks:int -> bytes:int -> unit
(** Account digest work avoided {e before} the commit path — the mirror's
    write-time clean-rewrite skips, which keep chunks out of the dirty set
    entirely — so [digest_stats] and the [blob.digest_*] metrics cover the
    whole pipeline. *)

val merkle_root : blob -> version:int -> int64
(** Incremental Merkle root of the snapshot's logical content (leaf
    function {!Types.desc_content_digest}): equal across versions, sites
    and repairs iff the content agrees. Memoized on shadow-shared subtree
    nodes, so successive versions cost O(changed · log n). Free of
    simulated cost; host-side work is counted in the [blob.merkle_*]
    metrics. *)

val with_merkle_metrics : (unit -> 'a) -> 'a
(** Run [f] and fold the {!Segment_tree.merkle_counters} delta it caused
    into the [blob.merkle_node_hashes] / [blob.merkle_node_reuses]
    metrics — for Merkle users outside this module (scrubber, compactor,
    audits). *)

val read_chunk : blob -> from:Net.host -> version:int -> chunk:int -> Payload.t
(** Fetch exactly one chunk (zeros if unwritten); chunk-granular metadata
    cost. *)

val read_desc : blob -> from:Net.host -> Types.chunk_desc -> Payload.t
(** Fetch one chunk's content straight from its descriptor — provider and
    network cost only, no version-manager or metadata round trips. Same
    digest verification and replica failover as {!read_chunk}. For callers
    that already hold the descriptor (the geo-replicator, whose journal
    records carry the tree delta), so they never load the primary's
    control plane. *)

val chunk_identity : blob -> version:int -> chunk:int -> ((int * int) * Net.host) option
(** Physical identity [(provider, chunk_id)] of the primary replica, with
    the host of that replica's provider, or [None] for unwritten chunks.
    One cost-free metadata peek serves a whole lazy fetch: the identity
    keys the coalescing of fetches of chunks shared between snapshots
    (adaptive prefetching) and the host is where the fetch is sent. *)

val clone : blob -> from:Net.host -> version:int -> blob
(** Zero-copy fork (the mirroring module's [CLONE] primitive). *)

val version_bytes : blob -> version:int -> int
(** Logical bytes referenced by a snapshot (sum of its chunk sizes). *)

val delta_bytes : blob -> base:int -> version:int -> int
(** Bytes of chunks that [version] does not share with [base] — the
    incremental size of a snapshot. Cost-free metadata computation. *)

val distinct_bytes : blob -> int
(** Physical bytes consumed by all versions of this blob together,
    counting shared chunks once — what incremental snapshotting saves.
    Test-only: an observer. *)

val tree : blob -> version:int -> Version_manager.tree
(** The snapshot's metadata root (used by the mirror's digest re-seed and
    by white-box tests). Free of simulated cost. *)

val live_chunk_refs : t -> (int * int, int) Hashtbl.t
(** Mark set over the whole repository: reference count per physical
    [(provider, chunk_id)] pair across every live version tree. Cost-free
    metadata walk in deterministic (blob, version) order — the
    compactor's sweep input. *)

val live_digest_refs : t -> (int64 * (int * int * Types.replica list)) list
(** Live logical references per content digest: distinct descriptor
    serials carrying it across the live trees, with size and an exemplar
    replica set, sorted by digest. The ground truth the dedup index is
    reconciled against when a compaction rolls forward. Cost-free. *)
