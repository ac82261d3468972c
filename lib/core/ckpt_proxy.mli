(** Checkpointing proxy.

    One proxy runs on every compute node. A guest contacts it over a local
    REST-ful request to ask for a snapshot of its virtual disk; the proxy
    authenticates that the caller is hosted on this very node (it is not
    globally accessible — Section 3.2), then suspends the VM, takes the
    snapshot through a caller-supplied action (freeze + COMMIT for
    BlobCR, image export for qcow2), resumes the VM, finishes any
    background ship, and replies with the result. The VM is resumed even
    when the snapshot action fails. *)

type t

exception Not_local
(** Raised when a VM asks a proxy on a different node. *)

val create : Cluster.t -> node:Cluster.node -> t
(** Start the proxy service on [node]. *)

val request :
  t -> vm:Vmsim.Vm.t -> suspended:(unit -> 'a) -> shipped:('a -> 'b) -> 'b
(** The proxy cycle: authenticate, suspend, run [suspended], resume, then
    run [shipped] on its result with the guest already running. For a
    BlobCR instance [suspended] freezes the dirty set (and, unless the
    final delta ships in the background, commits it) and [shipped]
    finishes the commit; a qcow2 instance does its whole export under
    suspend and passes [~shipped:Fun.id]. Charges the local request
    round-trip. Must be called from a fiber. Only the suspended part
    counts toward the [ckpt.suspend_seconds] histogram. Transient disk
    errors ({!Faults.Injected_error}) in either closure are retried in
    place with exponential backoff; a transient failure in [shipped]
    retries against the intact frozen state, so the published snapshot
    still describes the instant of the suspend. Any other failure counts
    as a failed request and propagates (the caller owns rolling a frozen
    epoch back). *)

val failures : t -> int
(** Requests whose snapshot action ultimately failed. Test-only: an observer. *)

val transient_retries : t -> int
(** Snapshot attempts repeated after an injected transient error.
    Test-only: an observer. *)
