(** Geo-replication: asynchronous commit-journal shipping to a standby
    repository, and standby promotion on primary-site disaster.

    The replicator tails the primary version manager's commit stream
    ({!Version_manager.set_on_commit}) and applies each record to an
    independent standby deployment — its own providers, metadata service,
    version manager and dedup index — across a fault-injectable WAN link
    modelled by a gateway host pair. The design is availability over
    consistency: the primary's commit path only ever pays a mailbox push,
    and link partitions, degradations or provider failures make the
    replica {e lag} (bounded-window pipelining, capped exponential backoff
    with jitter), never block or fail the primary.

    On a primary-site disaster, {!promote} cancels the shipping pipeline,
    rolls half-applied records back through the standby's own journals and
    reports what was lost — the RPO the disaster-recovery experiments
    sweep. *)

open Simcore
open Netsim

type t

type config = {
  window : int;  (** max commit records in flight (fetch + ship) at once *)
  link_latency : float;  (** one-way WAN latency on top of LAN costs, seconds *)
  ship_delay : float;
      (** batching delay before a committed record is fetched, seconds —
          defers replication reads past the checkpoint burst that produced
          the record (primary overhead down, RPO up) *)
}
(** Transient errors are retried indefinitely with a backoff that starts
    at 20 ms, doubles per attempt up to 2 s and carries up to 25 % jitter;
    a record still failing after 8 attempts is counted as stalled in
    {!stats}. *)

val default_config : config
(** Window 4, 50 ms link latency, 1 s shipping delay. *)

val create :
  Engine.t ->
  Net.t ->
  primary:Client.t ->
  standby:Client.t ->
  gateway_primary:Net.host ->
  gateway_standby:Net.host ->
  config:config ->
  t
(** Stand up the shipping pipeline (tail, per-record fetch, in-order
    apply fibers) between the two deployments. Nothing flows until
    {!attach} installs the commit hook. The replicator registers its audit
    with the engine ({!Engine.register_audit}): the in-flight window was
    never exceeded, a promoted replicator holds no pending record, and
    before promotion every version present on both sites carries the same
    logical content. *)

val attach : t -> unit
(** Install the commit hook on the primary version manager and enqueue an
    initial sync of everything already committed (per blob: a creation
    record, then each published version, oldest first). *)

val inject : t -> Version_manager.commit_record -> unit
(** Enqueue one record as if the primary had just committed it — the test
    hook for duplicate-delivery and idempotence scenarios.
    Test-only: a test rig hook. *)

val quiesce : t -> unit
(** Block the calling fiber (in simulated time) until every announced
    record has been applied — replication lag zero, or the replicator
    promoted. The drain step tests and operators use before comparing the
    two sites. Test-only: a test rig hook. *)

type promotion = {
  promoted_at : float;  (** simulation time of the promotion *)
  lost_versions : int;  (** publications announced but never applied *)
  lost_bytes : int;  (** changed bytes of those publications (primary-side) *)
  lost_records : int;  (** all lost records, including creations/clones *)
}

val promote : t -> promotion
(** Fail over: cancel the pipeline, roll back any half-applied record
    through the standby's journals ({!Version_manager.restart} and
    metadata journal recovery), and report the data loss. A record whose
    effect fully landed before the cancellation is not counted lost.
    Raises [Invalid_argument] on a second call. *)

val version_ok : t -> blob:int -> version:int -> bool
(** Whether the standby can restore this version: it was fully applied
    and every chunk descriptor still has a live, digest-clean replica on
    the standby's providers. Cost-free (audit-style peek). *)

type stats = {
  records_seen : int;  (** commit records announced (hook + initial sync) *)
  records_applied : int;  (** records whose effect landed on the standby *)
  duplicate_skips : int;  (** records skipped because already applied *)
  skipped_repairs : int;  (** digest-preserving repairs (logical no-ops) *)
  bytes_shipped : int;  (** chunk bytes carried across the WAN link *)
  retries : int;  (** transient-error retries across fetch and apply *)
  stalls : int;  (** records that exceeded 8 retry attempts *)
  backoff_time : float;  (** total seconds spent backing off *)
  max_inflight : int;  (** high-water mark of in-flight records *)
  max_lag : int;  (** high-water mark of announced-but-unapplied records *)
  lag : int;  (** current announced-but-unapplied records *)
}

val stats : t -> stats
(** Lifetime shipping statistics (kept outside [Obs] so they are available
    without an active metrics capture). *)

val lag : t -> int
(** Records announced but not yet fully applied — the replication lag.
    Test-only: an observer. *)

