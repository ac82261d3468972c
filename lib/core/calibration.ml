open Simcore

type t = {
  compute_nodes : int;
  disk_rate : float;
  disk_per_op : float;
  disk_capacity : int;
  net_bandwidth : float;
  net_latency : float;
  net_segment : int;
  image_capacity : int;
  guest_ram : int;
  os_ram_overhead : int;
  boot : Vmsim.Vm.boot_profile;
  blobseer : Blobseer.Types.params;
  metadata_providers : int;
  pvfs : Pvfs.params;
  proxy_request_cost : float;
  loadvm_record : int;
  savevm_rate : float;
  prefetch_enabled : bool;
}

let default =
  {
    compute_nodes = 120;
    disk_rate = 55.0 *. float_of_int Size.mib;
    disk_per_op = 5e-4;
    disk_capacity = Size.gib_n 278;
    net_bandwidth = 117.5 *. float_of_int Size.mib;
    net_latency = 1e-4;
    net_segment = 256 * Size.kib;
    image_capacity = Size.gib_n 2;
    guest_ram = Size.gib_n 2;
    os_ram_overhead = 118 * Size.mib;
    boot = Vmsim.Vm.default_boot_profile;
    blobseer = Blobseer.Types.default_params;
    metadata_providers = 20;
    pvfs = Pvfs.default_params;
    proxy_request_cost = 5e-4;
    loadvm_record = 8 * Size.kib;
    savevm_rate = 32.0 *. float_of_int Size.mib;
    prefetch_enabled = true;
  }

let quick_test =
  {
    default with
    compute_nodes = 4;
    image_capacity = Size.mib_n 64;
    guest_ram = Size.mib_n 256;
    os_ram_overhead = Size.mib_n 8;
    boot =
      {
        Vmsim.Vm.boot_read_bytes = Size.mib_n 4;
        boot_read_chunk = Size.mib;
        boot_cpu_time = 1.0;
        boot_jitter = 0.2;
        noise_files = 4;
        noise_file_bytes = 64 * Size.kib;
        scattered_touches = 6;
        touch_bytes = 16 * Size.kib;
      };
    metadata_providers = 2;
    loadvm_record = 64 * Size.kib;
  }
