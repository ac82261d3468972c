(** Snapshot-chain compactor: crash-safe retention enforcement.

    The compactor is the maintenance plane of the repository. On every
    {!scan} it evaluates the configured {!Retention.policy} against each
    blob's live version chain (through
    {!Version_manager.retention_plan}), {e flattens} across every chain
    segment the plan retires — verifying the surviving boundary versions'
    cold chunks (by default with one Merkle subtree-digest compare per
    boundary, falling back to provider-local and then remote verify-reads)
    so a restart from them never depends on data
    that only the retired intermediates pinned — and then retires the
    intermediates, releases their dedup references and reclaims the
    physical chunks only they referenced.

    Every compaction is a journaled transaction with three armable crash
    points ({!crash_point}): the intent record names the blob and the
    exact versions to retire, so {!restart} can roll an interrupted
    transaction {e back} (nothing was retired yet — the intent aborts and
    state is untouched) or {e forward} (some versions already left the
    live set — the remainder is retired, the dedup index reconciled and
    the repository mark-swept, so the committed outcome is reached).

    Retirement is gated: retires only proceed when the dedup index's
    refcounts agree with the live trees for every digest involved (parity
    gate).

    Physical reclamation is {e deferred}: chunks that lost their last
    live reference are queued and deleted one pass later, and their
    dedup entries are dropped immediately, which closes the race with a
    writer that resolved a dedup hit on soon-dead replicas but has not
    yet published. *)

open Netsim

type config = {
  policy : Retention.policy;  (** evaluated per blob on every pass *)
}
(** A flatten verify-read that hits an injected transient error is
    retried 3 times, backing off from 10 ms ({!Faults.with_retries}). *)

(** Armable crash points of the compaction transaction (fault-injection
    hooks; see {!arm_crash}). *)
type crash_point =
  | Before_flatten  (** intent journaled, nothing read or retired *)
  | Mid_retire  (** after the first version left the live set *)
  | After_retire  (** all retires applied; refs not yet released *)

(** Observable compactor history (deterministic under a fixed seed). *)
type stats = {
  passes : int;  (** compaction passes started *)
  flattens : int;  (** boundary flattens completed *)
  flatten_failures : int;  (** transactions aborted on the read path *)
  chunks_verified : int;  (** cold chunks verified during flattens *)
  chunks_shared : int;  (** flatten verifies skipped (sharing/dedup) *)
  flatten_bytes_read : int;  (** bytes remotely verify-read (fallback) *)
  flatten_bytes_local : int;  (** bytes verified provider-locally *)
  merkle_clean_bounds : int;
      (** boundary versions verified wholesale by the subtree-digest
          compare (no per-chunk work at all) *)
  read_retries : int;  (** transient-error retries on flatten reads *)
  versions_retired : int;  (** versions moved out of the live set *)
  chunks_reclaimed : int;  (** physical chunks deleted by the sweep *)
  bytes_reclaimed : int;  (** physical bytes deleted by the sweep *)
  parity_failures : int;  (** blobs vetoed by the parity gate *)
  crashes : int;  (** armed crashes fired *)
  rolled_forward : int;  (** recoveries that completed the intent *)
  rolled_back : int;  (** recoveries that aborted the intent *)
}

type t

val create : Client.t -> home:Net.host -> config:config -> t
(** A compactor for the deployment, reading flatten traffic from [home].
    It registers its audit with the deployment's engine
    ({!Simcore.Engine.register_audit}): the journal is quiescent while the
    compactor is alive, and no live tree references a chunk the sweep
    deleted. *)

val scan : t -> unit
(** One synchronous compaction pass over every blob; callers decide when
    passes run. Raises {!Types.Service_crashed} if the compactor is down
    or an armed crash fires mid-pass; intents a crash left pending stay
    for {!restart}. *)

(** {1 Crash consistency} *)

val is_alive : t -> bool
(** [false] between a crash firing and {!restart}. *)

val arm_crash : t -> crash_point -> unit
(** Plant a one-shot crash at the given point of the next compaction
    transaction. *)

val crash : t -> unit
(** Fail-stop the compactor immediately (fault-injection hook); it serves
    again after {!restart}. *)

val restart : t -> unit
(** Journal recovery. For each pending intent: if no named version has
    left the live set the intent rolls {e back} (abort, state
    untouched); otherwise it rolls {e forward} — the remaining named
    versions are retired, the dedup index is reconciled against the live
    trees and every unreferenced chunk is queued for the deferred sweep,
    then the intent commits. Idempotent; resumes serving. *)

val journal_pending : t -> int
(** Intents neither committed nor rolled back; 0 whenever the compactor
    is quiescent (audited at teardown while alive). Test-only: an observer. *)

(** {1 Introspection} *)

val stats : t -> stats
(** Lifetime counters. *)

val boundary_roots : t -> (int * int * int64) list
(** [(blob, version, merkle_root)] recorded for every boundary version a
    flatten verified, in occurrence order — the content fingerprint a
    restart from that boundary must still agree with ({!Client.merkle_root}
    over the same leaf function). Test-only: an observer. *)

val reclaimed_chunks : t -> (int * int) list
(** Physical [(provider, chunk_id)] pairs the sweep deleted, newest
    first. Chunk ids are never reused, so the audit can assert no live
    tree references any of them. Test-only: an observer. *)

val pending_reclaim : t -> int
(** Chunks queued for the deferred sweep but not yet deleted.
    Test-only: an observer. *)
