open Simcore
open Blobseer
open Vdisk
open Vmsim

type kind = Blobcr | Qcow2_disk | Qcow2_full

let kind_name = function
  | Blobcr -> "blobcr"
  | Qcow2_disk -> "qcow2-disk"
  | Qcow2_full -> "qcow2-full"

type mode = Live of { rounds : int; background : bool }

let stop_the_world = Live { rounds = 0; background = false }

type stack = Mirror_stack of Mirror.t | Qcow2_stack of Qcow2.t

type instance = {
  id : string;
  kind : kind;
  node : Cluster.node;
  vm : Vm.t;
  stack : stack;
  proxy : Ckpt_proxy.t;
  mutable epoch : int;
}

type snapshot =
  | Blobcr_snapshot of { image : Client.blob; version : int }
  | Qcow2_snapshot of { remote : Qcow2.remote_image }
  | Full_snapshot of { remote : Qcow2.remote_image; snapshot_name : string }

(* ------------------------------------------------------------------ *)
(* Full VM state serialization *)

let vm_state_magic = "BLOBCRVM"

let encode_vm_state vm =
  let procs = List.map (fun p -> (Process.name p, Process.mem p)) (Vm.processes vm) in
  let body = Marshal.to_bytes procs [] in
  let header = Bytes.create 16 in
  Bytes.blit_string vm_state_magic 0 header 0 8;
  Bytes.set_int64_le header 8 (Int64.of_int (Bytes.length body));
  let prefix = Payload.concat [ Payload.of_bytes header; Payload.of_bytes body ] in
  let target = Vm.ram_state_bytes vm in
  if Payload.length prefix >= target then prefix
  else
    Payload.concat [ prefix; Payload.pattern ~seed:0xFEEDL (target - Payload.length prefix) ]

let decode_vm_state payload =
  let header = Payload.to_string (Payload.sub payload ~pos:0 ~len:16) in
  if String.sub header 0 8 <> vm_state_magic then failwith "decode_vm_state: bad magic";
  let len = Int64.to_int (Bytes.get_int64_le (Bytes.of_string header) 8) in
  let body = Payload.to_string (Payload.sub payload ~pos:16 ~len) in
  (Marshal.from_string body 0 : (string * int) list)

(* ------------------------------------------------------------------ *)
(* Deployment *)

let make_vm (cluster : Cluster.t) ~node ~device ~id =
  Vm.create cluster.engine ~host:node.Cluster.host ~device ~ram:cluster.cal.guest_ram
    ~os_ram_overhead:cluster.cal.os_ram_overhead ~boot:cluster.cal.boot ~name:id ()

let make_stack (cluster : Cluster.t) kind ~node ~id ~base =
  match kind with
  | Blobcr ->
      let blob, version =
        match base with
        | Some (Blobcr_snapshot { image; version }) -> (image, version)
        | None -> (cluster.base_blob, cluster.base_version)
        | Some _ -> invalid_arg "Approach: snapshot kind mismatch"
      in
      let prefetch =
        if cluster.cal.Calibration.prefetch_enabled then Some cluster.prefetch else None
      in
      Mirror_stack
        (Mirror.create cluster.engine ~host:node.Cluster.host ~local_disk:node.Cluster.disk
           ~base:blob ~base_version:version ?prefetch ~name:(id ^ ".mirror") ())
  | Qcow2_disk | Qcow2_full ->
      let backing =
        match base with
        | Some (Qcow2_snapshot { remote }) -> Qcow2.Qcow2_remote remote
        | Some (Full_snapshot { remote; snapshot_name }) ->
            Qcow2.Qcow2_remote (Qcow2.remote_table_of_snapshot remote ~snapshot_name)
        | None -> Qcow2.Raw_pvfs cluster.base_raw
        | Some (Blobcr_snapshot _) -> invalid_arg "Approach: snapshot kind mismatch"
      in
      Qcow2_stack
        (Qcow2.create cluster.engine ~host:node.Cluster.host ~local_disk:node.Cluster.disk
           ~capacity:cluster.cal.image_capacity ~backing ~name:(id ^ ".qcow2") ())

let device_of_stack = function
  | Mirror_stack m -> Mirror.device m
  | Qcow2_stack q -> Qcow2.device q

let deploy cluster kind ~node ~id =
  let stack = make_stack cluster kind ~node ~id ~base:None in
  let vm = make_vm cluster ~node ~device:(device_of_stack stack) ~id in
  Vm.boot vm ~format_fs:true;
  { id; kind; node; vm; stack; proxy = Ckpt_proxy.create cluster ~node; epoch = 0 }

(* ------------------------------------------------------------------ *)
(* Checkpoint *)

let snapshot_path inst = Fmt.str "/snapshots/%s/%d" inst.id inst.epoch
let full_snapshot_path inst = Fmt.str "/snapshots/%s/full" inst.id

let m_precopy_rounds = Obs.Metrics.counter ~component:"ckpt" ~name:"precopy_rounds"
let m_precopy_bytes = Obs.Metrics.counter ~component:"ckpt" ~name:"precopy_bytes"

(* Pre-copy rounds run with the guest live, outside the proxy's retry
   envelope, so transient disk errors are absorbed here. The frozen epoch
   survives a failed [commit_frozen], so the retry ships the same instant.
   The backoff sleep sits inside a span to keep phase tiling exact. *)
let retry_transient engine ~label f =
  let rec go n =
    try f ()
    with Faults.Injected_error what when n < 3 ->
      Trace.emit engine ~component:label "transient fault (%s), retry %d/3" what (n + 1);
      Obs.Span.with_ engine ~component:"approach" ~name:"ckpt.backoff" (fun () ->
          Engine.sleep engine (0.02 *. float_of_int (1 lsl n)));
      go (n + 1)
  in
  go 0

(* The BlobCR checkpoint cycle, DESIGN.md §17: CLONE (first time) +
   COMMIT through the mirroring module, with optional pre-copy rounds and
   background shipping of the final delta. Stop-the-world is the
   zero-round, synchronous case. Any failure past a successful [freeze]
   rolls the frozen epoch back into the live dirty set, so the last fully
   committed snapshot remains the rollback target and no dirty data is
   lost. *)
let live_checkpoint (cluster : Cluster.t) inst mirror ~rounds ~background =
  let engine = cluster.engine in
  let label = "approach." ^ inst.id in
  let abort_unless_cancelled = function
    | Engine.Cancelled -> ()
    | _ -> Mirror.abort_frozen mirror
  in
  (* Pre-copy: ship the dirty set while the guest keeps running, up to
     [rounds] rounds, stopping early once the set stops shrinking (the
     guest is dirtying at least as fast as we ship). *)
  let rec precopy r prev =
    let dirty = Mirror.dirty_bytes mirror in
    if r >= rounds || dirty = 0 || dirty >= prev then ()
    else begin
      Obs.Span.with_ engine ~component:"approach" ~name:"ckpt.precopy"
        ~attrs:
          [ ("round", Obs.Record.Int (r + 1)); ("dirty_bytes", Obs.Record.Bytes dirty) ]
        (fun () ->
          Mirror.freeze mirror;
          retry_transient engine ~label (fun () ->
              ignore (Mirror.commit_frozen ~label:"ckpt.precopy.commit" mirror)));
      Obs.Metrics.incr m_precopy_rounds;
      Obs.Metrics.add m_precopy_bytes (float_of_int dirty);
      Trace.emit engine ~component:label "pre-copy round %d/%d shipped %d B live" (r + 1)
        rounds dirty;
      precopy (r + 1) dirty
    end
  in
  (try precopy 0 max_int
   with exn -> abort_unless_cancelled exn; raise exn);
  (* Final delta: freeze under suspend, then ship it either before the
     resume (suspend window proportional to last-round dirty bytes) or in
     the background after it (suspend window is the freeze alone, which is
     metadata-only). [suspended] may be retried by the proxy, hence the
     [frozen_active] guard. *)
  let suspended () =
    if not (Mirror.frozen_active mirror) then Mirror.freeze mirror;
    if background then None else Some (Mirror.commit_frozen mirror)
  in
  let shipped shipped_version =
    let version =
      match shipped_version with
      | Some version -> version
      | None -> Mirror.commit_frozen ~label:"ckpt.background" mirror
    in
    let s = Mirror.last_commit_stats mirror in
    Trace.emit engine ~component:label
      "checkpoint %d (v%d): shipped %d B, dedup'd %d B, clean-suppressed %d B" inst.epoch
      version s.Client.bytes_shipped s.Client.bytes_deduped s.Client.bytes_suppressed;
    Blobcr_snapshot { image = Option.get (Mirror.checkpoint_image mirror); version }
  in
  try Ckpt_proxy.request inst.proxy ~vm:inst.vm ~suspended ~shipped
  with exn -> abort_unless_cancelled exn; raise exn

(* qcow2 stacks have no copy-on-write freeze primitive, so the whole
   snapshot is taken under suspend. *)
let qcow2_snapshot (cluster : Cluster.t) inst image =
  match inst.kind with
  | Qcow2_disk ->
      (* Copy the whole local image file to PVFS as a new file. *)
      let remote =
        Qcow2.export image cluster.pvfs ~from:inst.node.Cluster.host ~path:(snapshot_path inst)
      in
      Qcow2_snapshot { remote }
  | Qcow2_full ->
      (* savevm: full state into the image, then copy the image; only the
         latest copy is kept (internal snapshots accumulate inside). *)
      let snapshot_name = Fmt.str "ckpt%d" inst.epoch in
      let state = encode_vm_state inst.vm in
      (* QEMU serializes the VM state through a throttled channel. *)
      Obs.Span.with_ cluster.engine ~component:"approach" ~name:"ckpt.serialize"
        ~attrs:[ ("bytes", Obs.Record.Bytes (Payload.length state)) ]
        (fun () ->
          Engine.sleep cluster.engine
            (float_of_int (Payload.length state) /. cluster.cal.Calibration.savevm_rate));
      Qcow2.savevm image ~snapshot_name ~vm_state:state;
      let remote =
        Qcow2.export image cluster.pvfs ~from:inst.node.Cluster.host
          ~path:(full_snapshot_path inst)
      in
      Full_snapshot { remote; snapshot_name }
  | Blobcr -> invalid_arg "Approach.request_checkpoint: stack mismatch"

let request_checkpoint ?(mode = stop_the_world) (cluster : Cluster.t) inst =
  let snapshot =
    match (inst.stack, mode) with
    | Mirror_stack mirror, Live { rounds; background } ->
        live_checkpoint cluster inst mirror ~rounds ~background
    | Qcow2_stack image, _ ->
        Ckpt_proxy.request inst.proxy ~vm:inst.vm ~shipped:Fun.id ~suspended:(fun () ->
            qcow2_snapshot cluster inst image)
  in
  inst.epoch <- inst.epoch + 1;
  snapshot

(* ------------------------------------------------------------------ *)
(* Kill / restart *)

let kill inst =
  Vm.kill inst.vm;
  match inst.stack with
  | Mirror_stack m -> Mirror.drop_local_state m
  | Qcow2_stack q -> Qcow2.drop_local q

(* Run [bring_up inst] and tear the instance down if it raises: a failed
   attempt must release its local-disk reservation before any retry. *)
let bring_up_or_kill inst bring_up =
  (try bring_up inst with exn -> kill inst; raise exn);
  inst

let restart (cluster : Cluster.t) ~node ~id snapshot =
  let attempt () =
    match snapshot with
    | Blobcr_snapshot _ | Qcow2_snapshot _ ->
        let kind =
          match snapshot with Blobcr_snapshot _ -> Blobcr | _ -> Qcow2_disk
        in
        let stack = make_stack cluster kind ~node ~id ~base:(Some snapshot) in
        let vm = make_vm cluster ~node ~device:(device_of_stack stack) ~id in
        bring_up_or_kill
          { id; kind; node; vm; stack; proxy = Ckpt_proxy.create cluster ~node; epoch = 0 }
          (fun inst ->
            (* Reboot the guest OS from the disk snapshot, then mount the
               checkpointed file system. *)
            Vm.boot inst.vm ~format_fs:false)
    | Full_snapshot { remote; snapshot_name } ->
        let stack = make_stack cluster Qcow2_full ~node ~id ~base:(Some snapshot) in
        let vm = make_vm cluster ~node ~device:(device_of_stack stack) ~id in
        bring_up_or_kill
          { id; kind = Qcow2_full; node; vm; stack; proxy = Ckpt_proxy.create cluster ~node;
            epoch = 0 }
          (fun inst ->
            (* Fetch the complete VM state from PVFS and resume — no reboot.
               The hypervisor streams the state in small records, paying the
               request path on each (this is what makes full-snapshot
               restarts slow). *)
            let state =
              Qcow2.remote_vm_state_streamed remote ~from:node.Cluster.host ~snapshot_name
                ~record:cluster.cal.Calibration.loadvm_record
            in
            Vm.restore_running inst.vm;
            List.iter
              (fun (name, mem) -> ignore (Vm.register_process inst.vm ~name ~mem))
              (decode_vm_state state))
  in
  (* Transient local-disk I/O errors while re-imaging the target node are
     absorbed the way a hypervisor block driver would: tear the half-built
     instance down and retry with bounded backoff. Crash-stops and data
     loss still propagate to the caller. *)
  Faults.with_retries cluster.engine ~label:(id ^ ".restart") attempt

(* ------------------------------------------------------------------ *)
(* Size accounting *)

let snapshot_bytes = function
  | Blobcr_snapshot { image; version } ->
      (* Incremental: chunks this snapshot does not share with the previous
         one (version 0 being the clone of the base image). *)
      Client.delta_bytes image ~base:(version - 1) ~version
  | Qcow2_snapshot { remote } | Full_snapshot { remote; _ } -> Qcow2.remote_file_size remote

let storage_total (cluster : Cluster.t) =
  let base_blob_bytes = Client.version_bytes cluster.base_blob ~version:cluster.base_version in
  let base_raw_bytes = Pvfs.size cluster.base_raw in
  Client.repository_bytes cluster.service + Pvfs.total_bytes cluster.pvfs
  - base_blob_bytes - base_raw_bytes
