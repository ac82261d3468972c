(** Supervised execution with automatic failure recovery.

    The supervisor turns the manual kill/restart choreography of the
    fault-tolerance examples into library behaviour: it deploys a gang of
    instances, drives a workload in fixed work units with periodic global
    checkpoints, watches the gang through a heartbeat prober running on
    the cluster's dedicated supervisor host, and on failure rolls the
    whole gang back to the last globally consistent snapshot set and
    re-deploys it on spare nodes.

    Detection: an instance is declared dead after missing
    [misses_allowed] consecutive heartbeats (a fail-stopped VM or a
    crash-stopped node). The workload can also report the gang down
    itself (a rank observing its VM die mid-iteration), which usually
    beats the prober.

    Recovery: the whole gang — survivors included — is fail-stopped,
    because coordinated checkpoints are only consistent globally; then
    every instance restarts from the last committed snapshot on live
    nodes not already in use, retrying a partially failed restart on
    fresh nodes up to [max_recovery_attempts] times before declaring the
    remaining instances abandoned.

    Progress accounting: time between the last committed checkpoint and a
    detected failure is {e wasted} (recomputed after rollback); time
    covered by a committed checkpoint is {e useful}; the
    detection-to-resume interval is recorded as recovery latency. *)


type policy = {
  heartbeat_period : float;  (** seconds between probe rounds *)
  misses_allowed : int;  (** consecutive missed beats before declaring death *)
  max_recovery_attempts : int;  (** restart rounds per recovery *)
  checkpoint_interval : int;  (** work units between global checkpoints *)
  ckpt_mode : Approach.mode;
      (** stop-the-world or live (pre-copy + background commit); with the
          live mode, a checkpoint still only commits once its background
          ships finish — a crash mid-background-commit rolls back to the
          last fully committed snapshot set *)
}

val default_policy : policy
(** 1 s heartbeats, 2 misses, 3 restart attempts, checkpoint every 4 units,
    stop-the-world checkpoints. *)

type workload = {
  setup : Approach.instance list -> unit;
      (** (re)bind the application to a gang — fresh communicator, ranks *)
  iterate : unit -> [ `Done | `Gang_down ];
      (** run one work unit; [`Gang_down] when a rank saw its VM die *)
  dump : Approach.instance -> unit;  (** guest-side state dump (collective) *)
  restore : Approach.instance -> unit;  (** re-read dumped state after restart *)
  resumed : int -> unit;  (** notify: state now reflects [n] completed units *)
}

type event =
  | Deployed of { at : float; ids : string list }
  | Checkpoint_committed of { at : float; units : int; elapsed : float }
  | Checkpoint_degraded of { at : float; units : int; reason : string }
      (** a global checkpoint failed; the previous snapshot set remains
          authoritative *)
  | Failure_detected of { at : float; dead : string list }
  | Recovered of { at : float; attempt : int; resumed_units : int }
  | Abandoned of { at : float; ids : string list }
  | Journal_recovered of { at : float; intents : int }
      (** metadata-plane journal recovery rolled back half-applied
          publications before a retry or restart *)
  | Scrubbed of { at : float; repaired : int; unrepairable : int }
      (** recovery-time scrub pass over the repository *)
  | Rollback_demoted of { at : float; from_units : int; to_units : int }
      (** newest snapshot set found unrestorable; falling back to the
          previous one *)
  | Failed_over of
      { at : float; rpo_versions : int; rpo_bytes : int; rpo_units : int; rto : float }
      (** a primary-site disaster was survived by promoting the standby
          repository: [rpo_versions]/[rpo_bytes] are publications lost in
          flight, [rpo_units] the work units rolled back relative to the
          last primary-committed checkpoint, [rto] the detection-to-running
          failover latency *)

type report = {
  finished : bool;  (** all units completed *)
  units_completed : int;
  checkpoints : int;  (** committed global checkpoints *)
  recoveries : int;
  useful_time : float;
  wasted_time : float;
  recovery_latencies : float list;  (** detection → resumed, per recovery *)
  checkpoint_time : float;  (** total time inside committed checkpoints *)
  events : event list;  (** chronological *)
  injected : Faults.event list;
      (** faults the run's injector applied, in order, [at] rewritten to
          absolute simulation time; empty without [faults] *)
}

type t

val run :
  Cluster.t ->
  kind:Approach.kind ->
  policy:policy ->
  ?scrub:Blobseer.Scrubber.config ->
  ?faults:Faults.script ->
  id:string ->
  gang:int ->
  units:int ->
  workload:workload ->
  unit ->
  t
(** Deploy [gang] instances named [id].[k], run [units] work units under
    supervision, and return the finished supervisor: read its outcome
    with {!report}, {!instances}, {!scrubber} and {!audit}. Takes a
    mandatory initial checkpoint before the first unit (recovery always
    has a snapshot set) and a final one after the last. Must be called
    from within {!Cluster.run}.

    A non-empty [faults] script (default empty: no injector) starts a
    {!Faults} injector once the initial deploy and checkpoint are done and
    the background services run, so script times are relative to that
    point. Its handlers resolve targets against this run: a host crash
    hits a live node hosting the gang (the whole cluster when none is
    placed), provider/metadata failures hit the BlobSeer services,
    transient disk errors arm node-local disks, degradation/partitions hit
    the network, a [Crash_service] whose target is 0 mod 3 restarts the
    scrubber, and targets are taken modulo the respective population size.
    A supervised run has no compactor: [Crash_compaction] and the other
    [Crash_service] targets are no-ops. The injector is stopped just
    before [run] returns: events due later are never applied, nor listed
    in [injected].

    With [scrub], a background {!Blobseer.Scrubber} runs on the supervisor
    host for the duration of the run, and every recovery scrubs the
    repository before picking its rollback target: repairs run first, and
    a snapshot set that still contains an unrepairable chunk is demoted to
    the previous committed set ({!event.Rollback_demoted}). *)

val report : t -> report
(** Counters accumulated over the supervised run. *)

val instances : t -> Approach.instance list
(** The gang's current (possibly redeployed) instances. *)

val scrubber : t -> Blobseer.Scrubber.t option
(** The background scrubber, when [run] was given a [scrub] config. *)

val audit : t -> string list
(** Invariant check that {!run} registers as the engine's teardown audit
    (invariant [dead-accounted]): every instance ever
    declared dead must have been restarted or accounted abandoned, and a
    completed run must have either finished or abandoned instances. *)
