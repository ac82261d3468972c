(** The checkpoint-restart approaches under evaluation.

    Three image stacks implement disk snapshotting; combined with the two
    state-dump methods (application-level files vs process-level blcr,
    which live in the workload drivers) they give the paper's five
    configurations:

    - {!Blobcr}: BlobSeer-backed mirroring module; snapshot = CLONE+COMMIT
      of local differences (incremental). → BlobCR-app / BlobCR-blcr.
    - {!Qcow2_disk}: local qcow2 over a PVFS-shared raw base; snapshot =
      copy the whole local image file to PVFS. → qcow2-disk-app / -blcr.
    - {!Qcow2_full}: like qcow2-disk but [savevm] dumps the complete VM
      state (RAM, devices) into the image before copying; restart resumes
      without rebooting. → qcow2-full. *)

open Blobseer
open Vdisk
open Vmsim

type kind = Blobcr | Qcow2_disk | Qcow2_full

val kind_name : kind -> string
(** ["blobcr" | "qcow2-disk" | "qcow2-full"]. *)

type mode =
  | Live of { rounds : int; background : bool }
      (** How a BlobCR instance checkpoints (DESIGN.md §17): up to
          [rounds] pre-copy rounds stream dirty chunks while the guest
          runs, then the final delta is frozen copy-on-write under
          suspend. With [background] the frozen delta ships after the
          resume, shrinking the suspend window to the metadata-only
          freeze; without it the final delta commits during the suspend
          (window proportional to the last round's dirty bytes, not the
          image size). qcow2 stacks have no freeze primitive and always
          take their whole snapshot under suspend, whatever the mode. *)

val stop_the_world : mode
(** [Live { rounds = 0; background = false }]: the paper's classic
    cycle — the VM stays suspended for the entire CLONE+COMMIT. *)

type stack = Mirror_stack of Mirror.t | Qcow2_stack of Qcow2.t

type instance = {
  id : string;
  kind : kind;
  node : Cluster.node;
  vm : Vm.t;
  stack : stack;
  proxy : Ckpt_proxy.t;
  mutable epoch : int;  (** checkpoints taken so far *)
}

type snapshot =
  | Blobcr_snapshot of { image : Client.blob; version : int }
  | Qcow2_snapshot of { remote : Qcow2.remote_image }
  | Full_snapshot of { remote : Qcow2.remote_image; snapshot_name : string }

val deploy : Cluster.t -> kind -> node:Cluster.node -> id:string -> instance
(** Fresh instance from the base image: build the image stack, boot the
    guest, format its file system. Blocks through boot. *)

val request_checkpoint : ?mode:mode -> Cluster.t -> instance -> snapshot
(** Ask the instance's local proxy for a disk (or full-VM) snapshot. The
    guest must have dumped and synced its state beforehand. [mode]
    (default {!stop_the_world}) sets the pre-copy rounds and background
    shipping for BlobCR instances; any failure after a freeze rolls
    the frozen epoch back into the dirty set, so the last fully committed
    snapshot remains the rollback target. Pre-copy activity is counted on
    [ckpt.precopy_rounds] / [ckpt.precopy_bytes]; the stop-the-world
    window lands on the [ckpt.suspend_seconds] histogram either way. *)

val kill : instance -> unit
(** Fail-stop the instance and release its node-local image state (the
    paper's failure model: local storage is lost). *)

val restart : Cluster.t -> node:Cluster.node -> id:string -> snapshot -> instance
(** Re-deploy from a snapshot on a (typically different) node: reboot from
    the disk snapshot and mount the checkpointed file system — or, for
    {!Full_snapshot}, fetch the VM state and resume without rebooting
    (restored processes are re-registered from the saved state). *)

val snapshot_bytes : snapshot -> int
(** Size of this one snapshot: incremental bytes for BlobCR, exported file
    size for qcow2 (Figure 4 / Table 1 metric). *)

val storage_total : Cluster.t -> int
(** Bytes held by repository + PVFS beyond the two base images — the
    cumulative storage metric of Figure 5(b). *)
