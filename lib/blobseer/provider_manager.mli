(** Provider manager: allocates data providers for new chunk writes.

    One instance per BlobSeer deployment; clients contact it once per write
    to obtain a placement for every chunk of the write. Placement is
    round-robin over live providers (which evens out the write load across
    local disks — design principle 3.1.1), with replicas of the same chunk
    on distinct providers. *)

open Simcore
open Netsim

type t

val create : Engine.t -> Net.t -> host:Net.host -> allocate_cost:float -> t
(** A manager on [host] with no providers yet; [allocate_cost] is charged
    per allocation round-trip. *)

val register : t -> Data_provider.t -> unit
(** Add a provider to the placement pool (deployment time). *)

val providers : t -> Data_provider.t array
(** All registered providers, in registration order. *)

val provider : t -> int -> Data_provider.t
(** Lookup by index (as stored in {!Types.replica}). *)

val allocate :
  t ->
  from:Net.host ->
  count:int ->
  replication:int ->
  unit ->
  int list list
(** [allocate t ~from ~count ~replication ()] returns, for each of [count]
    chunks, the indices of [replication] live providers on pairwise
    {e distinct hosts} (so no single machine crash can take every copy).
    Blocks for the control round-trip and per-chunk allocation cost.

    When fewer than [replication] distinct hosts are live, places one copy
    per live host (counted in {!degraded_allocations}) and leaves the
    shortfall to the scrubber. Raises {!Types.Provider_down} when no
    provider is live at all. *)

val degraded_allocations : t -> int
(** Chunks placed with fewer than the requested number of replicas.
    Test-only: an observer. *)

(** {1 Content-addressed deduplication}

    The provider manager owns the deployment's {!Dedup_index}. Writers
    resolve each chunk's content digest in the same control round trip
    that would otherwise allocate a placement: a {!Dedup} outcome hands
    back validated existing replicas (the write moves no data), a
    {!Fresh} outcome is a normal placement plus an in-flight claim that
    the writer must settle with {!commit_dedup} or {!abandon_dedup}. *)

(** Per-chunk outcome of {!resolve_or_allocate}. *)
type chunk_alloc =
  | Dedup of Types.replica list
      (** Identical content already stored on these replicas (all live,
          present and content-verified against the digest). *)
  | Fresh of int list
      (** No valid copy: write to these provider indices, then settle the
          claim. *)

val resolve_or_allocate :
  t ->
  from:Net.host ->
  digest:int64 ->
  size:int ->
  replication:int ->
  unit ->
  chunk_alloc
(** One control round trip covering dedup lookup and (on miss) placement.
    Blocks while another writer holds an in-flight claim on the same
    digest, then resolves against that writer's outcome. Placement and
    degraded-write semantics are those of {!allocate}. *)

(** Per-chunk outcome of {!resolve_many}. *)
type batch_alloc =
  | Batch_dedup of Types.replica list  (** as {!chunk_alloc.Dedup} *)
  | Batch_fresh of int list  (** as {!chunk_alloc.Fresh} *)
  | Batch_busy
      (** another writer holds an in-flight claim on this digest; retry
          it through {!resolve_or_allocate} *)

val resolve_many :
  t ->
  from:Net.host ->
  chunks:(int64 * int) list ->
  replication:int ->
  unit ->
  batch_alloc list
(** Batched {!resolve_or_allocate}: one control round trip resolving every
    [(digest, size)] in [chunks] (per-chunk service cost still applies at
    the manager). Never blocks on other writers' in-flight claims —
    contended digests come back [Batch_busy] and must be retried through
    the blocking single-chunk path; this is what makes the batch
    deadlock-free while holding multiple claims. Outcomes are returned in
    input order; [Batch_fresh] claims must be settled with {!commit_dedup}
    or {!abandon_dedup} exactly like {!chunk_alloc.Fresh} ones. *)

val commit_dedup : t -> digest:int64 -> size:int -> replicas:Types.replica list -> unit
(** Register freshly written replicas under their digest and release the
    in-flight claim. Piggybacks on the write acknowledgement: no separate
    simulated cost. *)

val abandon_dedup : t -> digest:int64 -> unit
(** Release an in-flight claim after a failed write (waiters retry). *)

val dedup_index : t -> Dedup_index.t
(** The deployment's index (compactor reconciliation, scrub repair, audits). *)
