(** Global checkpoint-restart orchestration.

    A {e global checkpoint} runs the two-stage procedure of Section 3.1.2
    on every instance in parallel: first the guest dumps its state into the
    local file system (application-level files or blcr process dumps — the
    caller-supplied [dump] action, which must end with a file-system sync),
    then each instance asks its local proxy for a disk snapshot. The global
    checkpoint completes when every snapshot is persistent; the resulting
    set of per-instance snapshots forms a globally consistent state because
    channels were drained before dumping.

    A {e global restart} re-deploys every instance from its snapshot, in
    parallel, on a caller-chosen set of nodes (disjoint from the original
    ones in the paper's experiments, to rule out caching effects).

    Both operations report {e partial} failure rather than aborting on the
    first exception: each per-instance branch runs in its own fiber and a
    branch that dies — a VM fail-stopping mid-dump unwinds its branch with
    [Engine.Cancelled] — is recorded as a typed {!branch_error} while the
    surviving branches run to completion. The supervisor uses this to retry
    exactly the failed subset. *)

type branch_error = {
  index : int;  (** position in the instance list / plan *)
  label : string;  (** instance id *)
  stage : string;
      (** where it failed: ["dump"] or ["snapshot"] for checkpoints,
          ["restart"] or ["restore"] for restarts *)
  error : exn;
}

type 'a partial = {
  completed : (int * 'a) list;  (** successful branches, by input position *)
  failed : branch_error list;
}
(** Outcome of a partially failed collective operation. *)

exception Partial_failure of string
(** Raised by the [_exn] wrappers when any branch failed. *)

val pp_branch_error : Format.formatter -> branch_error -> unit
(** ["<instance>: <exn>"] — for failure reports. *)

(** How a failed branch should be handled. Classification is by exception
    type — never by matching [Failure] message strings. *)
type error_class =
  [ `Transient  (** injected I/O error / disk full: retry in place *)
  | `Unavailable  (** replicas/providers gone: fail over or degrade *)
  | `Service_crash  (** metadata-plane crash: run journal recovery, retry *)
  | `Cancelled  (** the branch's VM/fiber was torn down *)
  | `Fatal  (** a bug, not a fault — propagate *) ]

val error_class : exn -> error_class
(** Classify an exception raised by a failed branch. *)

val pp_error_class : Format.formatter -> error_class -> unit
(** Lowercase tag, e.g. ["transient"]. *)

val global_checkpoint :
  ?mode:Approach.mode ->
  Cluster.t ->
  instances:Approach.instance list ->
  dump:(Approach.instance -> unit) ->
  (Approach.snapshot list, Approach.snapshot partial) result
(** [Ok snapshots] in instance order when every branch succeeded,
    [Error partial] otherwise. Blocks until every branch finished (or
    failed); a branch stranded on a collective blocks the call — run it
    in a cancellable fiber when failures are expected. [mode] (default
    {!Approach.stop_the_world}) sets the checkpoint mode of every
    instance; whatever the mode, [Ok] is returned only once every snapshot —
    including background-shipped frozen deltas — is fully committed, so a
    failure mid-background-commit leaves the previous snapshot set
    authoritative. *)

val global_restart :
  Cluster.t ->
  plan:(Cluster.node * string * Approach.snapshot) list ->
  restore:(Approach.instance -> unit) ->
  (Approach.instance list, Approach.instance partial) result
(** [plan] gives, per instance: target node, instance id, snapshot.
    [restore] re-reads application state from the mounted file system
    (empty for qcow2-full resumes, which carry state in RAM). *)

val global_checkpoint_exn :
  ?mode:Approach.mode ->
  Cluster.t ->
  instances:Approach.instance list ->
  dump:(Approach.instance -> unit) ->
  Approach.snapshot list
(** Like {!global_checkpoint} but raises {!Partial_failure} on any branch
    failure — for fault-free experiment drivers. *)

val global_restart_exn :
  Cluster.t ->
  plan:(Cluster.node * string * Approach.snapshot) list ->
  restore:(Approach.instance -> unit) ->
  Approach.instance list
(** Like {!global_restart} but raises {!Partial_failure} on failure. *)

val kill_all : Approach.instance list -> unit
(** Simulated global failure: fail-stop every instance. *)
