(** The paper's synthetic benchmarking application (Section 4.3).

    One process per VM instance allocates a data buffer and fills it with
    random data. A global application-level checkpoint dumps each buffer
    into a file in the instance's local file system; restart reads it back.
    Process-level checkpointing instead lets blcr dump the whole process
    memory.

    Each refill produces fresh content, and each application-level dump
    writes a new epoch-stamped checkpoint file — which is what makes
    successive snapshots grow for approaches without incremental support
    (Figure 5). *)

open Simcore
open Blobcr

type t

val start : Approach.instance -> buffer_bytes:int -> t
(** Allocate the buffer (registering the guest process) and fill it. *)

val instance : t -> Approach.instance
(** The instance this benchmark runs on. *)

val buffer : t -> Payload.t
(** The live data buffer (mutated by {!refill}). *)

val refill : t -> unit
(** Fill the buffer with fresh random data (charges memory-bandwidth-bound
    CPU time). *)

val dump_app : ?retain:int -> t -> unit
(** Application-level checkpoint: write the buffer to a fresh checkpoint
    file and sync the file system. [retain] keeps only that many newest
    checkpoint files (deleting older ones lets the compactor reclaim
    their chunks); default: keep all. *)

val dump_blcr : t -> unit
(** Process-level checkpoint: blcr dumps all process memory, then sync. *)

val restore_app : Approach.instance -> t
(** Read the newest application checkpoint file back into a buffer.
    Raises [Failure] if the instance holds no checkpoint. *)

val restore_blcr : Approach.instance -> t
(** Process-level restart: blcr reloads the dumped process image. *)

val resume_in_memory : Approach.instance -> t
(** qcow2-full restart path: the buffer is already in the restored RAM; no
    file reads. Raises [Failure] if the snapshot carried no process. *)
