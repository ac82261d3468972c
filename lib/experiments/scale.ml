open Simcore
open Blobcr

type t = {
  name : string;
  cal : Calibration.t;
  seed : int;
  schedule : Event_queue.schedule;
  instance_counts : int list;
  buffer_small : int;
  buffer_large : int;
  successive_checkpoints : int;
  cm1_vm_counts : int list;
  cm1_config : Workloads.Cm1.config;
  cm1_warmup_iterations : int;
  availability_mtbfs : float list;
  availability_intervals : int list;
  availability_units : int;
  availability_gang : int;
  durability_corrupt_weights : int list;
  durability_replications : int list;
  durability_scrub_intervals : float list;
  durability_mtbf : float;
  durability_units : int;
  durability_gang : int;
  dr_link_latencies : float list;
  dr_windows : int list;
  dr_intervals : int list;
  dr_units : int;
  dr_gang : int;
  chains_depths : int list;
  chains_keep_last : int;
  chains_thin_base : int;
  chains_image_bytes : int;
  precopy_rounds : int list;
  precopy_intervals : float list;
  precopy_dirty_mbps : float list;
  precopy_epochs : int;
  precopy_write_bytes : int;
}

let paper =
  {
    name = "paper";
    cal = Calibration.default;
    seed = 42;
    schedule = Event_queue.Fifo;
    instance_counts = [ 1; 30; 60; 90; 120 ];
    buffer_small = Size.mib_n 50;
    buffer_large = Size.mib_n 200;
    successive_checkpoints = 4;
    cm1_vm_counts = [ 5; 25; 50; 75; 100 ];
    cm1_config =
      {
        Workloads.Cm1.default_config with
        (* 20 heavyweight iterations stand in for the paper's 10 minutes of
           execution before the checkpoint: same dirtied state, far fewer
           simulation events. *)
        compute_per_iteration = 30.0;
        summary_every = 5;
      };
    cm1_warmup_iterations = 20;
    availability_mtbfs = [ 600.0; 1800.0; 3600.0 ];
    availability_intervals = [ 2; 5; 10; 20 ];
    availability_units = 40;
    availability_gang = 4;
    durability_corrupt_weights = [ 0; 2; 6 ];
    durability_replications = [ 2; 3 ];
    durability_scrub_intervals = [ 5.0; 20.0 ];
    durability_mtbf = 900.0;
    durability_units = 24;
    durability_gang = 4;
    dr_link_latencies = [ 0.05; 0.2; 0.4 ];
    dr_windows = [ 1; 2; 4; 16 ];
    dr_intervals = [ 2; 5 ];
    dr_units = 24;
    dr_gang = 4;
    chains_depths = [ 4; 8; 16; 32 ];
    chains_keep_last = 4;
    chains_thin_base = 2;
    chains_image_bytes = Size.mib_n 50;
    precopy_rounds = [ 0; 1; 2; 4 ];
    precopy_intervals = [ 5.0; 15.0 ];
    precopy_dirty_mbps = [ 2.0; 8.0 ];
    precopy_epochs = 3;
    precopy_write_bytes = 256 * Size.kib;
  }

let quick =
  {
    name = "quick";
    cal = Calibration.quick_test;
    seed = 42;
    schedule = Event_queue.Fifo;
    instance_counts = [ 1; 2; 4 ];
    buffer_small = Size.mib_n 2;
    buffer_large = Size.mib_n 8;
    successive_checkpoints = 3;
    cm1_vm_counts = [ 2 ];
    cm1_config =
      {
        Workloads.Cm1.default_config with
        procs_per_vm = 2;
        subdomain_state_bytes = 512 * Size.kib;
        compute_per_iteration = 5.0;
        summary_every = 2;
      };
    cm1_warmup_iterations = 4;
    availability_mtbfs = [ 12.0; 60.0 ];
    availability_intervals = [ 2; 4 ];
    availability_units = 8;
    availability_gang = 2;
    durability_corrupt_weights = [ 0; 4 ];
    durability_replications = [ 2 ];
    durability_scrub_intervals = [ 4.0 ];
    durability_mtbf = 15.0;
    durability_units = 8;
    durability_gang = 2;
    dr_link_latencies = [ 0.05; 0.4 ];
    dr_windows = [ 1; 2; 4 ];
    dr_intervals = [ 2 ];
    dr_units = 8;
    dr_gang = 4;
    chains_depths = [ 2; 4; 6 ];
    chains_keep_last = 2;
    chains_thin_base = 2;
    chains_image_bytes = Size.mib_n 2;
    precopy_rounds = [ 0; 1; 2 ];
    precopy_intervals = [ 2.0 ];
    precopy_dirty_mbps = [ 2.0 ];
    precopy_epochs = 2;
    precopy_write_bytes = 64 * Size.kib;
  }

let find name = List.find_opt (fun s -> String.equal s.name name) [ paper; quick ]
