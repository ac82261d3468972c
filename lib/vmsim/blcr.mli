(** BLCR-style process-level checkpointing.

    Dumps the full memory footprint of every registered guest process into
    per-process files in the guest file system — transparently, without
    application cooperation, and {e indiscriminately}: all allocated memory
    is written, which is why blcr checkpoints exceed application-level ones
    (Table 1 of the paper). *)

open Simcore

val dump : Vm.t -> int
(** Dump every process of the VM into the guest FS and [sync] (the paper's
    added step: flush before requesting the disk snapshot). Returns the
    total bytes dumped. The VM must be booted. CPU cost of serializing
    memory is charged. *)

val restore : Vm.t -> int
(** Read every dump file back (repopulating process memory on restart);
    re-registers each dumped process on the VM. Returns bytes read.
    Raises [Failure] if no dumps are present. *)

val newest_dump : Vm.t -> name:string -> Payload.t
(** The most recent context file dumped for the named process. Raises
    [Not_found]. *)
