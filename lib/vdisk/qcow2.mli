(** qcow2-style copy-on-write disk images (the paper's baseline).

    A qcow2 image stores only the clusters its VM has written, backed by a
    read-only {e backing image} for everything else. Internal snapshots
    ([savevm]) freeze the current cluster table inside the same file —
    later writes copy-on-write within the file — and can store the full VM
    state (RAM, devices) alongside.

    What qcow2 {e cannot} do (and the reason BlobCR wins Figure 5) is
    transparent incremental {e disk} snapshots: taking a disk snapshot means
    copying the whole current image file to the parallel file system with
    {!export}, and successive snapshots re-copy everything accumulated so
    far.

    Images live on a compute node's local disk; exported images live in
    PVFS and can serve as backing for freshly created images on other
    nodes. *)

open Simcore
open Netsim
open Storage

type t
type remote_image

type backing =
  | No_backing
  | Raw_pvfs of Pvfs.file  (** raw base image shared through PVFS *)
  | Qcow2_remote of remote_image  (** exported snapshot chain in PVFS *)

val create :
  Engine.t ->
  host:Net.host ->
  local_disk:Disk.t ->
  ?cluster_size:int ->
  capacity:int ->
  backing:backing ->
  name:string ->
  unit ->
  t
(** Fresh image with no allocated clusters. Default cluster size 64 KiB.
    [host] is the compute node, used for remote backing reads. The image
    registers its refcount audit with the engine's teardown audits
    ({!Engine.audit}). Test-only [?cluster_size]: fast tests use 128-byte
    to 1 KiB clusters. *)

val read : t -> offset:int -> len:int -> Payload.t
(** Allocated clusters read from the local disk; anything else falls
    through the backing chain (remote I/O through PVFS). *)

val write : t -> offset:int -> Payload.t -> unit
(** Copy-on-write at cluster granularity: first write to a cluster fetches
    its backing content (for partial writes), and writes to snapshot-frozen
    clusters allocate fresh ones. *)

val device : t -> Block_dev.t
(** The raw block-device view handed to the hypervisor. *)

val file_size : t -> int
(** Bytes the image file occupies locally: header and lookup tables,
    allocated clusters, plus internal-snapshot tables and VM states. This
    is what a disk snapshot must copy to PVFS. Test-only: an observer. *)

val drop_local : t -> unit
(** Release the image's local-disk footprint (instance terminated, node
    space reclaimed). The image must not be used afterwards. *)

(** {1 Internal snapshots (savevm)} *)

val savevm : t -> snapshot_name:string -> vm_state:Payload.t -> unit
(** Freeze the current cluster table under [snapshot_name] and store the VM
    state in the image (charged as a local disk write). *)

val snapshot_names : t -> string list
(** Internal snapshots, oldest first. Test-only: an observer. *)

val unsafe_set_refcount : t -> phys:int -> int -> unit
(** Corrupt a refcount in place. Test-only: exists so tests can prove the
    refcount auditor catches seeded defects. *)

(** {1 Export / remote images} *)

val export : t -> Pvfs.t -> from:Net.host -> path:string -> remote_image
(** The disk-snapshot operation: read the whole local image file and write
    it to PVFS as a standalone file (replacing any previous file at
    [path]). The result can back new images and serve VM states. *)

val remote_file_size : remote_image -> int
(** Size of the exported file on PVFS. *)

val remote_vm_state_streamed :
  remote_image -> from:Net.host -> snapshot_name:string -> record:int -> Payload.t
(** Fetch a stored VM state from the exported image (full-snapshot
    restart) the way a resuming hypervisor reads it: sequentially,
    [record] bytes per request, paying the file-system request path on
    each record. Raises [Not_found] if there is no such snapshot. *)

val remote_table_of_snapshot : remote_image -> snapshot_name:string -> remote_image
(** View of the exported image as of an internal snapshot: reads resolve
    through that snapshot's cluster table (used to resume a VM from a full
    snapshot without rebooting). *)

(** {1 Incremental exports and chain collapse}

    The delta-chain workaround for qcow2's full-copy snapshots:
    {!export_incremental} ships only clusters whose content changed since
    a previous export and backs the result onto it, forming a {e chain}.
    Restart reads that miss a delta level pay a per-level table probe
    before falling through, so restart latency grows with chain depth —
    the read amplification {!collapse_chain} removes by merging the chain
    back into one standalone file and retiring the deltas. This is the
    baseline counterpart of BlobSeer-side chain compaction. *)

val export_incremental :
  t -> Pvfs.t -> from:Net.host -> path:string -> base:remote_image -> remote_image
(** Delta disk snapshot against [base] (typically the previous export of
    the same image): detects changed clusters by content digest against
    the {e effective} content of [base]'s whole chain, ships only those
    (plus tables and any stored VM states), and returns an image backed
    by [base]. Raises [Invalid_argument] when [base]'s capacity or
    cluster size differ. *)

val remote_is_delta : remote_image -> bool
(** Whether the image is an incremental export (its table covers only the
    clusters changed relative to its backing). Test-only: an observer. *)

val remote_chain_depth : remote_image -> int
(** Number of qcow2 levels a miss-everything read walks: 1 for a
    standalone export, one more per delta in the backing chain. *)

type collapse_stats = {
  levels_collapsed : int;  (** qcow2 levels merged into the result *)
  clusters_unique : int;  (** distinct guest clusters materialized *)
  bytes_shipped : int;  (** bytes written to the standalone file *)
  bytes_reclaimed : int;  (** bytes of retired level files deleted *)
}

val collapse_chain :
  remote_image -> from:Net.host -> path:string -> remote_image * collapse_stats
(** Merge the image's whole qcow2 chain (top level down, newest cluster
    wins) into one standalone file at [path], delete every chain level
    and return the collapsed image. The caller must ensure no other
    image still backs onto the retired levels; internal-snapshot VM
    states are not carried over (collapse is a disk-data operation).
    Raises [Invalid_argument] when [path] names one of the chain's own
    files. *)
