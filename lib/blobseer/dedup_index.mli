(** Content-addressed chunk index: digest → replica set, with logical
    reference counts.

    Owned by the {!Provider_manager}. Before allocating placements for a
    chunk write, the client (through the provider manager) resolves the
    chunk's content digest here: a {e hit} returns the replicas of an
    already-stored identical chunk — the write ships zero bytes and the
    new descriptor simply references the existing copies; a {e miss}
    claims the digest, takes the normal write path and registers the
    fresh replicas.

    Reference counts are {e logical}: [refs d] is the number of distinct
    descriptor serials carrying digest [d] across all live (blob,
    version) segment trees. They are bumped by {!Version_manager.publish}
    after the journal commit (so rolled-back publications never count),
    released by the compactor as it retires versions, and recomputed from
    the live trees by its roll-forward reconciliation ({!reconcile}) —
    either way an entry no live version references is dropped, making the
    physical chunk reclaimable. The invariant audit checks index
    refcounts against the live trees at teardown. *)

open Simcore

type t

type stats = {
  hits : int;  (** writes satisfied by an existing identical chunk *)
  misses : int;  (** writes that claimed a fresh digest *)
  bytes_saved : int;  (** payload bytes not shipped thanks to hits *)
  entries : int;  (** digests currently indexed *)
}

val create : Engine.t -> t
(** An empty index (the engine is used to block concurrent claimants of
    the same digest). *)

(** Outcome of {!resolve}. *)
type resolution =
  | Hit of Types.replica list
      (** Identical content is stored and validated: reference these
          replicas, move no data. *)
  | Claimed
      (** No valid copy exists; the caller now owns the digest and must
          {!publish} (after a successful write) or {!abandon} (on
          failure) — other writers of the same content are blocked on
          the outcome. *)

val resolve :
  t -> digest:int64 -> size:int -> validate:(Types.replica list -> bool) -> resolution
(** Resolve a digest prior to writing. [validate] is consulted on a
    candidate hit (with the indexed replicas); returning [false] drops
    the stale mapping and the resolution proceeds as a miss. Blocks (via
    an {!Engine.Ivar}) while another writer holds an in-flight claim on
    the same digest. Must be called from inside a fiber. *)

(** Outcome of {!resolve_nowait}. *)
type nowait_resolution =
  | Now_hit of Types.replica list  (** as {!resolution.Hit} *)
  | Now_claimed  (** as {!resolution.Claimed} *)
  | Now_busy
      (** another writer holds an in-flight claim on this digest; the
          caller must retry through the blocking {!resolve} path *)

val resolve_nowait :
  t ->
  digest:int64 ->
  size:int ->
  validate:(Types.replica list -> bool) ->
  nowait_resolution
(** Like {!resolve} but never blocks: an in-flight claim by another writer
    yields [Now_busy] instead of waiting. Batch resolvers use this so they
    never hold one claim while blocked on another — the deadlock a pair of
    clients claiming overlapping digest sets in opposite orders would
    otherwise reach. Safe to call outside a fiber. *)

val publish : t -> digest:int64 -> size:int -> replicas:Types.replica list -> unit
(** Register freshly written replicas under their digest and release the
    in-flight claim (waiters re-resolve and hit). The new entry starts at
    0 refs — references are counted at version publication — unless a
    previous entry for this digest was dropped as stale, in which case the
    refcount it carried (live descriptors still reference the content) is
    inherited. *)

val abandon : t -> digest:int64 -> unit
(** Release an in-flight claim without registering (the write failed).
    Waiters re-resolve; one of them claims. Safe to call when no claim is
    held. *)

val add_ref : t -> int64 -> unit
(** Count one live descriptor referencing the digest. No-op for unknown
    digests (e.g. descriptors written with dedup disabled). *)

val release_ref : t -> int64 -> unit
(** Uncount one live descriptor reference (compactor retire path: a
    distinct serial carrying the digest left the live trees). Clamps at
    zero; no-op for unknown digests. An entry released to zero references
    stays registered — a later write of the same content revalidates its
    replicas and either hits or re-registers. *)

val drop_unreferenced : t -> int64 -> bool
(** Remove the entry for [digest] if its refcount is zero (compactor
    reclamation path: the physical chunks are queued for deletion, so the
    entry must stop serving dedup hits). Returns whether an entry was
    dropped; no-op on referenced or unknown digests. *)

val update_replicas : t -> digest:int64 -> replicas:Types.replica list -> unit
(** Scrub repair: point the index at the repaired replica set so future
    hits reference healthy copies. No-op for unknown digests. *)

val reconcile : t -> (int64 * (int * int * Types.replica list)) list -> int
(** [reconcile t live] resets the index to exactly the live state computed
    from the surviving trees: [live] maps each digest to its
    [(refs, size, exemplar replicas)]. Existing entries get their refs
    set; missing digests are (re-)inserted; entries for digests no live
    version references are dropped and their count returned — those
    physical chunks are now reclaimable by the sweep. Callers must pass a
    deterministically ordered list. *)

val view : t -> (int64 * int * int * Types.replica list) list
(** Snapshot [(digest, refs, size, replicas)], sorted by digest — the
    audit's view. *)

val stats : t -> stats
(** Deployment-lifetime hit/miss/savings counters. *)

val unsafe_set_refs : t -> digest:int64 -> int -> unit
(** Test-only: corrupt a refcount to exercise the invariant audit. *)
