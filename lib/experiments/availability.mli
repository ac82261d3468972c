(** Availability sweep: MTBF × checkpoint-interval under injected faults.

    Beyond the paper's performance figures, this experiment exercises the
    whole fault path: a supervised CM1 gang runs to completion while a
    deterministic injector crash-stops hosts and data providers with
    exponential inter-arrival times (mean MTBF); the supervisor detects
    failures, rolls back to the last global checkpoint and re-deploys on
    spare nodes. Reported per (approach, MTBF, interval): effective
    utilization (completed compute / makespan), wasted (rolled-back) time
    and recovery latency — plus the Young's-formula optimal interval
    computed from the measured mean checkpoint cost, for comparison
    against the swept intervals. *)

open Simcore
open Blobcr

type point = {
  kind : Approach.kind;
  mtbf : float;
  interval : int;  (** checkpoint interval in work units *)
  makespan : float;
  utilization : float;  (** completed compute time / makespan *)
  wasted : float;
  recoveries : int;
  finished : bool;
  mean_recovery_latency : float;
  checkpoint_cost : float;  (** mean committed global-checkpoint duration *)
}

val sweep : Scale.t -> progress:(string -> unit) -> point list
(** One supervised chaos run per (kind, mtbf, interval) cell, each on a
    fresh cluster seeded from the scale (same scale ⇒ same failure
    timeline ⇒ same results). Test-only: a test rig hook. *)

val tables : Scale.t -> progress:(string -> unit) -> (string * Stats.table) list
(** Named result tables: ["availability"] (utilization),
    ["availability-wasted"], ["availability-recovery"],
    ["availability-youngs"]. *)
