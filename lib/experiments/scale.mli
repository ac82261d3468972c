(** Experiment scale presets.

    [paper] reproduces the evaluation at the published scale (120 compute
    nodes, 50/200 MB buffers, up to 400 CM1 processes). [quick] shrinks
    everything so the whole suite runs in seconds — used by tests and for
    smoke-testing the harness. *)

open Blobcr

type t = {
  name : string;  (** ["paper"] or ["quick"]; {!find} looks presets up by it *)
  cal : Calibration.t;
  seed : int;  (** engine seed every cluster in the run is built with *)
  schedule : Simcore.Event_queue.schedule;
      (** event-queue tie-break policy every cluster in the run is built
          with; [Fifo] in both presets — schedule fuzzing overrides it *)
  instance_counts : int list;  (** x-axis of Figures 2 and 3 *)
  buffer_small : int;
  buffer_large : int;
  successive_checkpoints : int;  (** rounds in Figure 5 *)
  cm1_vm_counts : int list;  (** VMs (×4 processes) for Figure 6 *)
  cm1_config : Workloads.Cm1.config;
  cm1_warmup_iterations : int;
  availability_mtbfs : float list;  (** per-run host MTBF values swept *)
  availability_intervals : int list;  (** checkpoint intervals, in work units *)
  availability_units : int;  (** work units per availability run *)
  availability_gang : int;  (** instances per supervised gang *)
  durability_corrupt_weights : int list;
      (** corruption intensity axis: relative weight of silent-corruption
          events in the fault profile (0 = none) *)
  durability_replications : int list;  (** chunk replication degrees swept *)
  durability_scrub_intervals : float list;  (** background scrub periods, seconds *)
  durability_mtbf : float;  (** fault inter-arrival mean for durability runs *)
  durability_units : int;  (** work units per durability run *)
  durability_gang : int;  (** instances per durability gang *)
  dr_link_latencies : float list;  (** WAN one-way latencies swept, seconds *)
  dr_windows : int list;  (** replication in-flight window sizes swept *)
  dr_intervals : int list;  (** checkpoint intervals swept, in work units *)
  dr_units : int;  (** work units per disaster-recovery run *)
  dr_gang : int;  (** instances per disaster-recovery gang *)
  chains_depths : int list;  (** snapshot-chain depths (epochs) swept *)
  chains_keep_last : int;  (** [Keep_last k] retention for chains runs *)
  chains_thin_base : int;  (** [Thin_exponential] base for chains runs *)
  chains_image_bytes : int;  (** image capacity for chains runs *)
  precopy_rounds : int list;  (** pre-copy round budgets swept (0 = none) *)
  precopy_intervals : float list;  (** seconds between checkpoint requests *)
  precopy_dirty_mbps : float list;  (** guest dirtying rates swept, MiB/s *)
  precopy_epochs : int;  (** checkpoints per precopy run *)
  precopy_write_bytes : int;  (** writer block size per guest write+sync *)
}

val paper : t
(** Full paper scale: the 120-node testbed and the figures' sweep axes. *)

val quick : t
(** Shrunk axes and node counts for CI and smoke tests. *)

val find : string -> t option
(** ["paper" | "quick"]. *)
