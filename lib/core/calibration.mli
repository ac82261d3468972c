(** Calibration: every timing and sizing constant of the simulated testbed
    in one place.

    Defaults follow Section 4.1 of the paper (Grid'5000 {e graphene}
    cluster): 120 compute nodes, local disks at ~55 MB/s, GbE at measured
    117.5 MB/s and 0.1 ms latency, KVM guests with a 2 GB raw disk image,
    BlobSeer with a 256 KiB stripe, one version manager, one provider
    manager and 20 metadata providers on dedicated nodes, PVFS across the
    compute nodes.

    Experiments never hard-code constants; they take a [t] so ablations can
    vary one knob at a time. *)

type t = {
  (* platform *)
  compute_nodes : int;
  disk_rate : float;  (** bytes/s *)
  disk_per_op : float;
  disk_capacity : int;
  net_bandwidth : float;  (** bytes/s *)
  net_latency : float;
  net_segment : int;
  (* image / guest *)
  image_capacity : int;  (** virtual disk size (2 GB) *)
  guest_ram : int;
  os_ram_overhead : int;  (** full-snapshot overhead beyond process memory *)
  boot : Vmsim.Vm.boot_profile;
  (* BlobSeer *)
  blobseer : Blobseer.Types.params;
  metadata_providers : int;
  (* PVFS *)
  pvfs : Pvfs.params;
  (* proxy *)
  proxy_request_cost : float;  (** local REST round-trip to the proxy *)
  loadvm_record : int;
      (** granularity at which a resumed hypervisor reads a full VM
          snapshot back from storage (QEMU loadvm streams the state in
          small records, paying per-request cost on each) *)
  savevm_rate : float;
      (** hypervisor-side serialization rate of [savevm] (QEMU throttles
          state saving; the historical default cap is 32 MiB/s) *)
  prefetch_enabled : bool;
      (** adaptive prefetching / fetch coalescing on restart (design
          principle 3.1.4); disabled only by ablation studies *)
}

val default : t
(** The paper's testbed: 120 nodes, 2 GiB images, measured boot and
    transfer rates. *)

val quick_test : t
(** A small, fast variant for unit/integration tests: few nodes, small
    image, tiny boot profile. *)
