(** CM1 experiment machinery (Figure 6 and Table 1).

    Deploys quad-core VM instances each hosting [procs_per_vm] MPI ranks,
    runs the stencil for a warm-up period standing in for the paper's 10
    minutes of execution, then takes a global checkpoint and records its
    completion time and per-VM snapshot size. qcow2-full is omitted, as in
    the paper ("unacceptably large sizes"). *)

type point = {
  combo : Combos.t;
  vms : int;
  processes : int;
  checkpoint_time : float;
  snapshot_bytes : float;  (** mean per disk snapshot *)
}

val run_point : Scale.t -> combo:Combos.t -> vms:int -> point
(** One CM1 run on a fresh cluster: deploy [vms] instances, warm up,
    checkpoint once. *)

val sweep : Scale.t -> progress:(point -> unit) -> point list
(** The full grid: every disk-only combo ({!Combos.disk_only}) × the
    scale's VM counts. *)
