(** Disaster-recovery sweep: WAN link latency × checkpoint interval ×
    replication window.

    A supervised CM1 gang checkpoints into a two-site repository — the
    standby fed asynchronously by the journal-shipping
    {!Blobcr.Blobseer.Replicator} — while a deterministic injector
    fail-stops the entire primary site mid-run. The supervisor promotes
    the standby, restarts the gang from the newest fully replicated
    checkpoint set, and the run completes on the surviving site. Reported
    per cell: RPO (versions and work units lost), RTO
    (detection-to-running failover latency), the replication-lag
    high-water mark, and the primary committed-checkpoint overhead
    relative to a no-standby control at the same interval. *)

open Blobcr

type outcome = {
  report : Supervisor.report;
  digests : (string * int64) list;
      (** digest of every dumped subdomain file across the final gang,
          keyed and sorted by guest path — byte-identical iff two runs
          restored the same application state *)
  audit : string list;  (** supervisor accounting violations (empty = clean) *)
  repl_stats : Blobseer.Replicator.stats;  (** shipper counters at teardown *)
  failed_over : bool;  (** the run survived a site disaster via promotion *)
  rpo_versions : int;  (** publications lost in flight at failover *)
  rpo_units : int;  (** work units rolled back relative to the primary *)
  rto : float;  (** detection-to-running failover latency, seconds *)
  integrity_failures : int;  (** checksum-mismatch failovers, both sites *)
  engine : Simcore.Engine.t;
      (** the quiesced engine the run executed on, with its audit checks
          still registered — schedule fuzzing audits it post-run *)
}

val default_crash_at : Scale.t -> interval:int -> float
(** Injector-relative disaster time used when {!dr_run} is not given one:
    just after the first global checkpoint's records become eligible for
    shipping (commit + the default batching delay), so the site dies with
    publications still inside the replication pipeline. *)

val dr_run :
  Scale.t ->
  ?config:Blobseer.Replicator.config ->
  ?crash_at:float ->
  interval:int ->
  gang:int ->
  units:int ->
  unit ->
  outcome
(** One supervised run on a fresh two-site cluster seeded from the scale,
    with a single scripted {!Blobcr.Faults.Crash_site} at [crash_at]
    (default {!default_crash_at}). Same scale, config and crash time ⇒
    same outcome, byte for byte. *)

val tables :
  Scale.t -> progress:(string -> unit) -> (string * Simcore.Stats.table) list
(** Named result tables: ["dr-rpo"] (versions lost vs window),
    ["dr-rpo-units"] (work units rolled back), ["dr-rto"] (failover
    latency), ["dr-lag"] (lag high-water mark) and ["dr-overhead"]
    (primary checkpoint overhead vs the no-standby control). *)
