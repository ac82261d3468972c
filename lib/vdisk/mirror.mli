(** The BlobCR mirroring module.

    Sits between the hypervisor and the checkpoint repository, exposing a
    BlobSeer snapshot as a plain raw block device (the paper implements
    this over FUSE). Internally it:

    - {e lazily fetches} chunks of the backing snapshot on first access and
      caches them on the compute node's local disk (optionally coalescing
      fetches of shared chunks through a {!Prefetch.t});
    - keeps {e local modifications} as copy-on-write differences on the
      local disk, never touching the repository during normal execution;
    - implements the two ioctl primitives of the paper: {!clone} (derive
      the per-VM checkpoint image from the base image, zero-copy) and
      {!commit} (push the accumulated differences into the checkpoint image
      as one incremental snapshot and return its version). *)

open Simcore
open Netsim
open Storage
open Blobseer

type t

val create :
  Engine.t ->
  host:Net.host ->
  local_disk:Disk.t ->
  base:Client.blob ->
  base_version:int ->
  ?prefetch:Prefetch.t ->
  name:string ->
  unit ->
  t
(** A mirror of snapshot [base_version] of [base]. On restart, pass the
    checkpoint image and the snapshot version to roll back to. The mirror
    registers its COW, digest-cache and frozen-epoch audit with the
    engine's teardown audits ({!Engine.audit}). *)

val capacity : t -> int
(** Byte capacity of the mirrored image. *)

val chunk_size : t -> int
(** Equals the repository stripe size: COW granularity. *)

val device : t -> Block_dev.t
(** The raw block-device view handed to the hypervisor. Reads go through
    the cache, lazily fetching missing chunks from the base snapshot. *)

val write : t -> offset:int -> Payload.t -> unit
(** Copy-on-write update kept on the local disk; partial chunk writes
    fetch the old content first. *)

val clone : t -> unit
(** The [CLONE] ioctl: create this instance's checkpoint image as a clone
    of the base snapshot. Idempotent; {!commit} calls it on demand.
    Test-only: tests clone ahead of a fault. *)

val commit : t -> int
(** The [COMMIT] ioctl: write every chunk dirtied since the previous commit
    into the checkpoint image as one incremental snapshot; returns the
    published version. A commit with no dirty chunks still publishes (an
    empty incremental snapshot).

    This is {!freeze} followed by {!commit_frozen} — the stop-the-world
    checkpoint is the live path with nothing racing the ship. On failure
    the frozen epoch is rolled back ({!abort_frozen}) and the exception
    re-raised, so the dirty set is left as it was and a retry publishes
    the same bytes. Raises [Invalid_argument] (from {!freeze}) if a frozen
    epoch is already active. *)

val freeze : t -> unit
(** Capture the current dirty set as a {e frozen epoch}, copy-on-write —
    the live-checkpointing half of the CLONE primitive (DESIGN.md §17).
    Metadata-only and instantaneous: the dirty set moves into the frozen
    pending set (with its cached digests), the live dirty set restarts
    empty, and guest writes keep flowing. The first guest write to a
    frozen-pending chunk copies the frozen bytes into a node-local diff
    log before the overwrite lands (charging the extra local-disk I/O to
    the guest — the interference cost of checkpointing live). Raises
    [Invalid_argument] if a frozen epoch is already active. *)

val commit_frozen : ?label:string -> t -> int
(** Ship the frozen epoch into the checkpoint image as one incremental
    snapshot and return the published version, reading each chunk's
    {e frozen} content: from the diff log when the guest overwrote it,
    from the live store otherwise (where both are identical).

    The push is pipelined through {!Client.write_chunks}: per-chunk
    local-disk reads, digests and repository writes overlap under the
    client write window. Digest hints captured at freeze time let the
    client suppress chunks rewritten with content identical to the base
    version (ship nothing, publish no descriptor) and dedup content
    already stored anywhere in the repository, exactly, even while the
    guest mutates the live bytes mid-commit. On success the frozen epoch
    is released (its diff log freed). On failure the frozen epoch stays
    intact so the caller can retry (transient error) or {!abort_frozen}.
    [label] names the emitted span (default ["ckpt.commit"]). *)

val abort_frozen : t -> unit
(** Roll a frozen epoch back: fold every unshipped frozen chunk into the
    live dirty set and drop the diff log, so the last fully committed
    snapshot stays the rollback target and the next commit ships the
    chunks' current bytes. No-op without an active frozen epoch. *)

val frozen_active : t -> bool
(** Whether a frozen epoch is currently pending. *)

val cow_bytes : t -> int
(** Cumulative bytes copied into frozen diff logs (interference cost). *)

val last_commit_stats : t -> Client.write_stats
(** Shipped / dedup'd / suppressed accounting of the most recent
    {!commit} ({!Client.empty_write_stats} before the first). *)

val total_commit_stats : t -> Client.write_stats
(** Cumulative accounting over every {!commit} of this mirror. *)

val checkpoint_image : t -> Client.blob option
(** The per-instance checkpoint image; [None] before the first {!clone}. *)

val taint_all : t -> unit
(** Mark every locally present chunk dirty, forcing the next {!commit} to
    re-push the whole local image state — the ablation baseline that
    isolates the value of incremental snapshotting. *)

val dirty_bytes : t -> int
(** Size of the diff the next {!commit} will push (chunk-granular). *)

val drop_local_state : t -> unit
(** Release the mirror's local-disk footprint (instance terminated and its
    node-local storage reclaimed). *)

(** {1 Audit}

    A snapshot of the state the mirror's teardown audit reads, and the
    corrupters its tests use; none of these charge simulated I/O. *)

(** The mirror's per-chunk state. Chunk lists are ascending, digest lists
    ascending by chunk. The audit checks [dirty ⊆ present] (the COW
    invariant); [digests] keys ⊆ [present], each entry the digest of the
    chunk's current local bytes; [frozen_pending ⊆ present];
    [frozen_copied ⊆ frozen_pending]; [frozen_digests] keys ⊆
    [frozen_pending], each entry the digest of the chunk's frozen bytes. *)
type snapshot = {
  present : int list;  (** locally cached chunks *)
  dirty : int list;  (** chunks modified since the last commit *)
  digests : (int * int64) list;
      (** the carried digest cache; empty when [params.digest_cache] is off *)
  frozen_pending : int list;  (** the active frozen epoch's chunks; empty when none *)
  frozen_copied : int list;  (** frozen chunks whose bytes sit in the diff log *)
  frozen_digests : (int * int64) list;  (** digests captured at freeze time *)
  cow_chunks : int;
      (** cumulative frozen-chunk copies made to preserve overwritten frozen
          content: the live-checkpointing interference, in chunks *)
  local_bytes : int;  (** local-disk bytes used by cache plus COW differences *)
}

val snapshot : t -> snapshot
(** The mirror's state now. Test-only: an observer. *)

val unsafe_mark_dirty : t -> chunk:int -> unit
(** Mark a chunk dirty without caching it — breaks the COW invariant.
    Test-only: used to verify the auditor catches corruption. *)

val unsafe_poke_digest : t -> chunk:int -> int64 -> unit
(** Corrupt a digest-cache entry — breaks the coherence invariant.
    Test-only: used to verify the auditor catches it. *)
