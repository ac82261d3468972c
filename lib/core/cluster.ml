open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk

type node = { index : int; host : Net.host; disk : Disk.t }

type dr = {
  primary_nodes : node array;
  primary_service : Client.t;
  standby_nodes : node array;
  standby_service : Client.t;
  replicator : Replicator.t;
  mutable site_failed : bool;
  mutable promoted : bool;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  cal : Calibration.t;
  mutable nodes : node array;
  mutable service : Client.t;
  pvfs : Pvfs.t;
  prefetch : Prefetch.t;
  mutable base_blob : Client.blob;
  base_version : int;
  base_raw : Pvfs.file;
  supervisor_host : Net.host;
  mutable failed_nodes : int list;
  mutable crash_hooks : (int -> unit) list;
  mutable dr : dr option;
}

(* The base image content: a deterministic pattern standing in for the
   guest OS bytes (Debian root file system in the paper). *)
let base_image_seed = 0xD3B1A7L

let build ?(seed = 42) ?schedule ?dr:dr_config (cal : Calibration.t) =
  let engine = Engine.create ~seed ?schedule () in
  let net =
    Net.create engine
      {
        Net.bandwidth = cal.net_bandwidth;
        latency = cal.net_latency;
        segment_size = cal.net_segment;
        fabric_bandwidth = None;
      }
  in
  let mk_disk name =
    Disk.create engine ~rate:cal.disk_rate ~per_op:cal.disk_per_op
      ~capacity:cal.disk_capacity ~name ()
  in
  let nodes =
    Array.init cal.compute_nodes (fun index ->
        {
          index;
          host = Net.add_host net ~name:(Fmt.str "node%03d" index);
          disk = mk_disk (Fmt.str "node%03d.disk" index);
        })
  in
  (* Dedicated service nodes, as in the paper's deployment. *)
  let vm_host = Net.add_host net ~name:"version-manager" in
  let pm_host = Net.add_host net ~name:"provider-manager" in
  let md_hosts =
    List.init cal.metadata_providers (fun i ->
        Net.add_host net ~name:(Fmt.str "metadata%02d" i))
  in
  let pvfs_md_host = Net.add_host net ~name:"pvfs-metadata" in
  let service =
    Client.deploy engine net ~params:cal.blobseer ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts
      ~data_providers:(Array.to_list (Array.map (fun n -> (n.host, n.disk)) nodes))
  in
  let pvfs =
    Pvfs.deploy engine net ~params:cal.pvfs ~metadata_host:pvfs_md_host
      ~io_servers:(Array.to_list (Array.map (fun n -> (n.host, n.disk)) nodes))
  in
  let prefetch = Prefetch.create engine net () in
  (* Upload the base image from a client host: once into the repository,
     once into PVFS. *)
  let client_host = Net.add_host net ~name:"cloud-client" in
  let supervisor_host = Net.add_host net ~name:"supervisor" in
  let image = Payload.pattern ~seed:base_image_seed cal.image_capacity in
  let uploaded = ref None in
  let _ =
    Engine.Fiber.spawn engine ~name:"image-upload" (fun () ->
        let base_blob = Client.create_blob service ~from:client_host ~capacity:cal.image_capacity in
        let base_version = Client.write base_blob ~from:client_host ~offset:0 image in
        let base_raw = Pvfs.create pvfs ~from:client_host ~path:"/images/base.raw" in
        Pvfs.write base_raw ~from:client_host ~offset:0 image;
        uploaded := Some (base_blob, base_version, base_raw))
  in
  Engine.run engine;
  let base_blob, base_version, base_raw = Option.get !uploaded in
  let t =
    { engine; net; cal; nodes; service; pvfs; prefetch; base_blob; base_version; base_raw;
      supervisor_host; failed_nodes = []; crash_hooks = []; dr = None }
  in
  (* Optional standby site: a mirror deployment on its own nodes and
     service hosts, fed by the journal-shipping replicator through a WAN
     gateway pair. The initial sync (base image) drains before [build]
     returns, so experiments start from a converged pair. *)
  (match dr_config with
  | None -> ()
  | Some config ->
      let standby_nodes =
        Array.init cal.Calibration.compute_nodes (fun index ->
            {
              index;
              host = Net.add_host net ~name:(Fmt.str "standby%03d" index);
              disk = mk_disk (Fmt.str "standby%03d.disk" index);
            })
      in
      let standby_vm_host = Net.add_host net ~name:"standby-version-manager" in
      let standby_pm_host = Net.add_host net ~name:"standby-provider-manager" in
      let standby_md_hosts =
        List.init cal.Calibration.metadata_providers (fun i ->
            Net.add_host net ~name:(Fmt.str "standby-metadata%02d" i))
      in
      let gateway_primary = Net.add_host net ~name:"gateway-primary" in
      let gateway_standby = Net.add_host net ~name:"gateway-standby" in
      let standby_service =
        Client.deploy engine net ~params:cal.blobseer ~version_manager_host:standby_vm_host
          ~provider_manager_host:standby_pm_host ~metadata_hosts:standby_md_hosts
          ~data_providers:
            (Array.to_list (Array.map (fun n -> (n.host, n.disk)) standby_nodes))
      in
      let replicator =
        Replicator.create engine net ~primary:service ~standby:standby_service
          ~gateway_primary ~gateway_standby ~config
      in
      Replicator.attach replicator;
      Engine.run engine;
      t.dr <-
        Some
          {
            primary_nodes = nodes;
            primary_service = service;
            standby_nodes;
            standby_service;
            replicator;
            site_failed = false;
            promoted = false;
          });
  t

let node t i = t.nodes.(i)
let node_count t = Array.length t.nodes
let node_failed t i = List.mem i t.failed_nodes
let on_node_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

(* Crash-stop of a whole compute node: the BlobSeer data provider living
   on it fail-stops with its local storage (provider [i] runs on node [i]
   by construction), and registered hooks run so owners of VMs placed
   there can kill them. PVFS striped data is assumed to survive (the
   paper's baselines keep their snapshots on a separate PVFS deployment);
   this slightly favors the qcow2 baselines. Idempotent. *)
let crash_node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Cluster.crash_node";
  if not (node_failed t i) then begin
    t.failed_nodes <- i :: t.failed_nodes;
    Trace.emit t.engine ~component:"cluster" "node %d crashed (fail-stop)" i;
    Blobseer.Data_provider.fail (Client.data_provider t.service i);
    List.iter (fun hook -> hook i) t.crash_hooks
  end

(* ------------------------------------------------------------------ *)
(* Disaster recovery *)

let replicator t = Option.map (fun dr -> dr.replicator) t.dr
let site_failed t = match t.dr with Some dr -> dr.site_failed | None -> false
let promoted t = match t.dr with Some dr -> dr.promoted | None -> false

(* Fail-stop the whole primary site: every compute node (taking the data
   providers and hosted VMs down through the normal crash path), the
   version manager and all metadata providers. A no-op without a standby
   site — there would be nothing left to run the experiment on. *)
let crash_site t =
  match t.dr with
  | None -> ()
  | Some dr when dr.site_failed || dr.promoted -> ()
  | Some dr ->
      dr.site_failed <- true;
      Trace.emit t.engine ~component:"cluster" "site disaster: primary site fail-stopped";
      Array.iter (fun n -> crash_node t n.index) dr.primary_nodes;
      Version_manager.fail (Client.version_manager dr.primary_service);
      let md = Client.metadata_service dr.primary_service in
      for i = 0 to Metadata_service.provider_count md - 1 do
        Metadata_service.fail md i
      done

(* Swap the standby in as the active repository: cancel the shipping
   pipeline (collecting the RPO), roll half-applied records back, and
   repoint the cluster's nodes/service/base-blob handles so supervisors
   and experiments keep working against [t.service] unchanged. *)
let promote_standby t =
  match t.dr with
  | None -> invalid_arg "Cluster.promote_standby: no standby site"
  | Some dr ->
      if dr.promoted then invalid_arg "Cluster.promote_standby: already promoted";
      let promo = Replicator.promote dr.replicator in
      dr.promoted <- true;
      t.nodes <- dr.standby_nodes;
      t.service <- dr.standby_service;
      t.failed_nodes <- [];
      t.base_blob <-
        Client.open_blob dr.standby_service ~from:t.supervisor_host
          ~id:(Client.blob_id t.base_blob);
      Trace.emit t.engine ~component:"cluster"
        "standby promoted: %d version(s) / %d byte(s) lost" promo.Replicator.lost_versions
        promo.Replicator.lost_bytes;
      promo

let run t f =
  let result = ref None in
  let _ = Engine.Fiber.spawn t.engine ~name:"experiment" (fun () -> result := Some (f ())) in
  (* Drive the engine until the driver finishes — not until the event queue
     drains, because background guest activity (OS loggers) generates
     events for as long as VMs are alive. *)
  while !result = None && Engine.step t.engine do
    ()
  done;
  match !result with
  | Some r -> r
  | None -> failwith "Cluster.run: driver did not complete (deadlock?)"

let now t = Engine.now t.engine
