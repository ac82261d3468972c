(** CM1-like atmospheric stencil workload (Section 4.4).

    A three-dimensional, iterative numerical model reduced to its
    checkpoint-relevant behaviour: the spatial domain is decomposed into
    per-process subdomains (50×50 points each — weak scaling); at every
    iteration each MPI process computes over its subdomain and exchanges
    halo values with its grid neighbours; every few iterations each process
    appends summary output to its own file; application-level checkpoints
    dump each subdomain into a per-process file.

    Instances host [procs_per_vm] MPI processes each (the paper's quad-core
    VMs host 4). *)

open Blobcr

type t

type config = {
  procs_per_vm : int;
  subdomain_state_bytes : int;  (** per-process application state *)
  process_mem_factor : float;
      (** total allocated memory / useful state — what blcr pays for *)
  halo_bytes : int;  (** per-neighbour exchange per iteration *)
  compute_per_iteration : float;  (** seconds of computation per step *)
  summary_every : int;  (** iterations between summary-file appends *)
  summary_bytes : int;
}

val default_config : config
(** Calibrated to Table 1: ~9.7 MB of state per process (52 MB snapshots
    for 4-process VMs including OS noise), blcr dumps ≈ 2.9× more. *)

val setup : Cluster.t -> instances:Approach.instance list -> config -> t
(** Attach a communicator across all instances and register the MPI
    processes. *)

val config : t -> config
(** The configuration given to {!setup}. *)

val process_count : t -> int
(** Total MPI ranks ([vms * procs_per_vm]). *)

val iterate : t -> int -> unit
(** Run iterations: compute + halo exchange on every process in parallel,
    plus periodic summary output. *)

val dump_app : t -> Approach.instance -> unit
(** CM1's own checkpointing: drain channels, then every local process
    writes its subdomain file; ends with a sync. Collective — the global
    checkpoint must invoke it on every instance in parallel. *)

val dump_blcr : t -> Approach.instance -> unit
(** Process-level alternative: drain, blcr-dump all local processes,
    sync. *)

val restore_app : t -> Approach.instance -> unit
(** Read every local subdomain file back. Raises [Failure] when files are
    missing. *)

val subdomain_digests : t -> Approach.instance -> int64 list
(** Digests of the locally held subdomain states (restart verification). *)

val supervised_workload : Cluster.t -> config -> iters_per_unit:int -> Supervisor.workload
(** Package CM1 for {!Supervisor.run}: one work unit = [iters_per_unit]
    iterations with application-level dumps; [setup] rebinds to each new
    gang, [resumed n] rewinds to step [n * iters_per_unit]. *)
