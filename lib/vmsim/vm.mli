(** Virtual machine instance model.

    A VM runs on a compute node (sharing its NIC), executes guest processes
    as engine fibers, and sees its virtual disk through a
    {!Vdisk.Block_dev.t} (BlobCR mirror or qcow2). The lifecycle follows
    the paper: deploy → boot (reads the hot set of the image, mounts the
    guest file system, starts OS background activity) → run → suspend /
    resume around disk snapshots → kill (fail-stop or planned
    termination).

    Guest processes must call {!pause_point} at their loop boundaries; a
    suspended VM blocks them there, which models freezing the instance
    while its disk is snapshotted. *)

open Simcore
open Netsim
open Vdisk

type t

type boot_profile = {
  boot_read_bytes : int;  (** hot set of the image read during boot *)
  boot_read_chunk : int;  (** granularity of boot-time reads *)
  boot_cpu_time : float;  (** non-I/O boot time, seconds *)
  boot_jitter : float;  (** max extra random delay, seconds *)
  noise_files : int;  (** files the OS dirties at boot (logs, configs) *)
  noise_file_bytes : int;  (** size of each *)
  scattered_touches : int;
      (** small in-place updates to existing OS files spread across the
          image (utmp, config rewrites) — each dirties a full COW unit, so
          their footprint in a snapshot depends on the image format's
          granularity (the 13 MB vs 7 MB effect of Figure 4) *)
  touch_bytes : int;  (** size of each scattered update *)
}

val default_boot_profile : boot_profile
(** 180 MiB hot set in 1 MiB reads, 18 s CPU, 2 s jitter, 8 noise files of
    100 KiB, 36 scattered 64 KiB touches. *)

type state = Created | Booting | Running | Suspended | Dead

val create :
  Engine.t ->
  host:Net.host ->
  device:Block_dev.t ->
  ?ram:int ->
  ?os_ram_overhead:int ->
  ?boot:boot_profile ->
  name:string ->
  unit ->
  t
(** Default RAM 2 GiB; [os_ram_overhead] (default 118 MiB, the paper's
    measured figure) is what a full VM snapshot carries beyond process
    memory. *)

val name : t -> string
(** The name passed at creation. *)

val host : t -> Net.host
(** The compute host the VM runs on. *)

val state : t -> state
(** Current lifecycle state. *)

val device : t -> Block_dev.t
(** The virtual disk attached at creation. Test-only: an observer. *)

val engine : t -> Engine.t
(** The engine the VM runs on. *)

val boot : t -> format_fs:bool -> unit
(** Blocks through the boot sequence. [format_fs] formats a fresh guest
    file system (first deployment) instead of mounting the one found on the
    image (restart path). Must be called from a fiber. *)

val restore_running : t -> unit
(** Resume path for full-VM snapshots: attach the device, mount the file
    system and mark the VM running without a guest reboot (the caller
    restores process state separately). *)

val fs : t -> Guest_fs.t
(** Raises [Failure] before {!boot}. *)

val suspend : t -> unit
(** Freeze guest execution (fast hypervisor operation). Idempotent.
    Raises {!Simcore.Engine.Cancelled} if the VM died — the caller's
    fiber is part of a cancelled gang and should unwind like any other
    blocking point. *)

val resume : t -> unit
(** Raises {!Simcore.Engine.Cancelled} if the VM died while suspended. *)

val kill : t -> unit
(** Fail-stop: cancel every guest fiber; the VM never runs again. *)

val pause_point : t -> unit
(** Called by guest code between steps: blocks while the VM is suspended,
    raises {!Simcore.Engine.Cancelled} if the VM was killed. *)

val spawn_process : t -> name:string -> mem:int -> (unit -> unit) -> Process.t
(** Run guest code in a fiber belonging to this VM, with [mem] bytes of
    tracked process memory (what BLCR would dump). *)

val register_process : t -> name:string -> mem:int -> Process.t
(** Track a process without running code (driver-managed workloads). *)

val processes : t -> Process.t list
(** In registration order. *)

val ram_state_bytes : t -> int
(** Size of a full VM snapshot's memory image: process memory plus OS
    overhead (used by savevm / qcow2-full). *)

val group : t -> Engine.Group.t
(** The VM's fiber group (for attaching auxiliary guest activity).
    Test-only: an observer. *)
