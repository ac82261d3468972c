(** Durability sweep: silent corruption × replication × scrub interval.

    Exercises the repository's whole self-healing story end to end: a
    supervised CM1 gang runs with a background {!Blobseer.Scrubber} while a
    deterministic injector silently corrupts stored replicas, crashes the
    version manager mid-COMMIT and crash-stops hosts. Clients detect
    corrupt replicas by checksum on read and fail over; the scrubber
    detects and repairs them in place; journal recovery rolls half-applied
    publications back before any restart. Reported per
    (corrupt-weight, replication, scrub-interval) cell: restart success,
    repair traffic, checksum failovers and checkpoint overhead.

    The {!chaos_run} harness is shared with the schedule-fuzz scenarios and
    replay checks ({!Analysis.Schedule_fuzz}), the [blobcr_lint durability]
    invariant and the fault-injection tests. *)

open Blobcr

type chaos = {
  report : Supervisor.report;
  digests : (string * int64) list;
      (** digest of every dumped subdomain file across the final gang,
          keyed and sorted by guest path — the restart-visible application
          state (byte-identical iff these match) *)
  audit : string list;  (** supervisor accounting violations (empty = clean) *)
  scrubber : Blobseer.Scrubber.t;
      (** the run's background scrubber, stopped: its stats, its
          chronological scrub log and its final bad-site set *)
  integrity_failures : int;  (** client checksum-mismatch failovers *)
  engine : Simcore.Engine.t;
      (** the quiesced engine the run executed on, with its audit checks
          still registered — schedule fuzzing audits it post-run *)
}

val final_subdomain_digests : Supervisor.t -> (string * int64) list
(** (instance name, digest) of each surviving instance's restored state —
    compared across runs to prove recovery restored identical content. *)

val chaos_run :
  Scale.t ->
  ?script:(Cluster.t -> Faults.script) ->
  ?gang:int ->
  ?units:int ->
  ?policy:Supervisor.policy ->
  unit ->
  chaos
(** One supervised chaos run on a fresh cluster seeded from the scale.
    [script] builds the fault script once the cluster exists (default:
    silent corruption at t=8.5, a version-manager crash armed mid-apply
    of the next COMMIT at t=9 and host 0 crash-stopped at t=18), with
    chunk replication 2 and 4 s scrub passes; [policy] overrides the
    supervisor policy (e.g. live checkpoint mode for the precopy fuzz
    scenario). Same scale and script ⇒ same outcome, byte for byte. *)

val render_scrub_log : chaos -> string
(** The scrub event log as one line per event — the replay-determinism
    subject. *)

type point = {
  corrupt_weight : int;
  replication : int;
  scrub_interval : float;
  finished : bool;
  recoveries : int;
  corruptions : int;
  integrity_failovers : int;
  repairs : int;
  repair_bytes : int;
  unrepairable : int;
  checkpoint_cost : float;
}

val sweep : Scale.t -> progress:(string -> unit) -> point list
(** The (corruption weight × replication × scrub interval) grid taken from
    the scale's durability axes. Test-only: a test rig hook. *)

val tables : Scale.t -> progress:(string -> unit) -> (string * Simcore.Stats.table) list
(** Named result tables: ["durability"] (restart success),
    ["durability-repair"] (repair traffic), ["durability-failover"]
    (client checksum failovers), ["durability-overhead"] (mean committed
    checkpoint duration). *)
