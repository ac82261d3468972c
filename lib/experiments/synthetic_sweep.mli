(** Shared machinery for the synthetic-benchmark experiments
    (Figures 2, 3, 4 and 5).

    One {e point} deploys [n] instances (one per compute node), runs the
    benchmarking application with a given buffer size, takes a global
    checkpoint (measuring completion time and snapshot sizes), then kills
    every instance and restarts the deployment on different nodes
    (measuring restart-to-restored time) — exactly the methodology of
    Section 4.3.1. *)

open Blobcr

type point = {
  combo : Combos.t;
  n : int;
  checkpoint_time : float;  (** global checkpoint completion, seconds *)
  restart_time : float;  (** redeploy + reboot/resume + state restore *)
  snapshot_bytes : float;  (** mean per-instance snapshot size *)
  storage_bytes : int;  (** cluster-wide checkpoint storage *)
}

val run_point : Scale.t -> combo:Combos.t -> n:int -> buffer:int -> point
(** One checkpoint/restart cycle on a fresh cluster with [n] instances and
    a [buffer]-byte application state each. *)

val sweep : Scale.t -> buffer:int -> progress:(point -> unit) -> point list
(** {!run_point} over every combo ({!Combos.all}) × the scale's instance
    counts. *)

type successive = {
  round_times : float list;  (** per-checkpoint completion time *)
  cumulative_storage : int list;  (** total storage after each round *)
}

val run_successive : Scale.t -> combo:Combos.t -> rounds:int -> buffer:int -> successive
(** Figure 5's methodology: one instance, [rounds] × (refill + global
    checkpoint). *)

val deploy_many : Cluster.t -> Approach.kind -> n:int -> Approach.instance list
(** Concurrent multi-deployment of [n] instances on nodes [0..n-1].
    Exposed for the examples. *)
