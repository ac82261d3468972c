(** Experiment rig: an IaaS cloud in the shape of the paper's testbed.

    Builds the simulated platform — compute nodes with local disks and a
    shared network, the BlobSeer checkpoint repository aggregated from the
    compute nodes' disks (Section 3.1.1), the PVFS deployment the baselines
    use, dedicated service nodes (version manager, provider manager,
    metadata providers, PVFS metadata server), the cooperative prefetcher,
    and the base disk image uploaded both as a BLOB and as a raw PVFS
    file. *)

open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk

type node = { index : int; host : Net.host; disk : Disk.t }

type dr = {
  primary_nodes : node array;  (** the original active site's nodes *)
  primary_service : Client.t;  (** the original active repository *)
  standby_nodes : node array;  (** the standby site's nodes *)
  standby_service : Client.t;  (** the standby repository *)
  replicator : Replicator.t;  (** the journal-shipping pipeline *)
  mutable site_failed : bool;  (** {!crash_site} was applied *)
  mutable promoted : bool;  (** {!promote_standby} was applied *)
}
(** Two-site state, present when {!build} was given a replication
    config. *)

type t = {
  engine : Engine.t;
  net : Net.t;
  cal : Calibration.t;
  mutable nodes : node array;  (** active-site compute nodes *)
  mutable service : Client.t;  (** BlobSeer over the active compute nodes *)
  pvfs : Pvfs.t;  (** PVFS over the compute nodes *)
  prefetch : Prefetch.t;
  mutable base_blob : Client.blob;
  base_version : int;
  base_raw : Pvfs.file;
  supervisor_host : Net.host;  (** where the supervisor service runs *)
  mutable failed_nodes : int list;  (** crash-stopped compute nodes *)
  mutable crash_hooks : (int -> unit) list;  (** run on each node crash *)
  mutable dr : dr option;  (** standby site, when built with [?dr] *)
}

val build :
  ?seed:int -> ?schedule:Event_queue.schedule -> ?dr:Replicator.config -> Calibration.t -> t
(** Stand up the platform and upload the base image (simulated time
    advances through the upload; experiments measure durations from their
    own start stamps). [schedule] is the engine's event-queue tie-break
    policy (default {!Event_queue.Fifo}); schedule fuzzing passes non-FIFO
    policies here to explore alternative interleavings of simultaneous
    events. [dr] additionally stands up a same-shape standby site (its own
    nodes, disks and service hosts) fed by a journal-shipping
    {!Replicator} through a WAN gateway pair; the base image is fully
    replicated before [build] returns. *)

val node : t -> int -> node
(** Compute node [i] (0-based). *)

val node_count : t -> int
(** Number of compute nodes stood up by {!build}. *)

val crash_node : t -> int -> unit
(** Crash-stop compute node [i]: its BlobSeer data provider fail-stops
    (local chunks are lost with the machine) and every registered crash
    hook runs, so VM owners can fail-stop instances placed there.
    Idempotent; PVFS-striped data survives. *)

val node_failed : t -> int -> bool
(** Whether {!crash_node} was applied to node [i]. *)

val on_node_crash : t -> (int -> unit) -> unit
(** Register a hook run with the node index on every {!crash_node}. *)

val crash_site : t -> unit
(** Fail-stop the entire active site: every compute node crashes (through
    {!crash_node}, so hooks run and hosted VMs die), and the repository's
    version manager and metadata providers fail-stop with them. The
    disaster-recovery trigger; idempotent, and a no-op when the cluster
    was built without a standby. *)

val site_failed : t -> bool
(** Whether {!crash_site} was applied. [false] without a standby site. *)

val promote_standby : t -> Replicator.promotion
(** Fail over to the standby site: the replicator pipeline is cancelled
    (yielding the loss report), half-applied records are rolled back, and
    [t.nodes]/[t.service]/[t.base_blob] are repointed at the standby so
    existing code keeps working unchanged. Raises [Invalid_argument]
    without a standby or on a second call. *)

val promoted : t -> bool
(** Whether {!promote_standby} was applied. *)

val replicator : t -> Replicator.t option
(** The journal-shipping pipeline, when built with [?dr]. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] executes [f] inside a fresh fiber and drives the engine until
    the event queue drains; returns [f]'s result. The entry point every
    experiment and example uses. *)

val now : t -> float
(** Current simulated time of the underlying engine, seconds. *)
