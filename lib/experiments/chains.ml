open Simcore
open Storage
open Blobcr

(* ------------------------------------------------------------------ *)
(* Shared harness pieces.

   Both sides write the same image history: a full initial image, then
   [depth] epochs each rewriting a rotating quarter of the image's first
   half with epoch-unique content. The second half therefore lives only
   in the oldest snapshot — the worst case for an uncollapsed qcow2 chain
   and the representative case for retention — and the epoch-unique
   payloads keep cross-version dedup hits honest (only genuinely
   unchanged data deduplicates). *)

let epoch_seed e = Int64.of_int (100 + e)

let dirty_region ~capacity e =
  let half = capacity / 2 in
  let qlen = max 1 (half / 4) in
  let offset = e mod 4 * qlen in
  (offset, min qlen (capacity - offset))

let phys_read cluster =
  let total = ref 0 in
  for i = 0 to Cluster.node_count cluster - 1 do
    total := !total + Disk.bytes_read (Cluster.node cluster i).Cluster.disk
  done;
  !total

let reader_node cluster = Cluster.node cluster (min 1 (Cluster.node_count cluster - 1))

(* ------------------------------------------------------------------ *)
(* BlobSeer side *)

type bs_outcome = {
  restart_s : float;
  restart_digest : int64;
  read_amp : float;
  epoch_mean_s : float;
  reclaimed_bytes : int;
  live_versions : int list;
  retired_versions : int list;
  cstats : Blobseer.Compactor.stats option;
  engine : Simcore.Engine.t;
}

(* Restart the compactor if a fault killed it, run one pass, swallow a
   crash that fires mid-pass (the next call rolls it forward/back). *)
let try_scan c =
  if not (Blobseer.Compactor.is_alive c) then Blobseer.Compactor.restart c;
  try Blobseer.Compactor.scan c with Blobseer.Types.Service_crashed _ -> ()

let bs_harness (scale : Scale.t) ?policy ?(with_faults = fun _ _ -> None) ~depth () =
  let cluster =
    Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal
  in
  Cluster.run cluster (fun () ->
      let engine = cluster.Cluster.engine in
      let service = cluster.Cluster.service in
      let home = (Cluster.node cluster 0).Cluster.host in
      let capacity = scale.Scale.chains_image_bytes in
      let blob = Blobseer.Client.create_blob service ~from:home ~capacity in
      let compactor =
        Option.map
          (fun policy ->
            Blobseer.Compactor.create service ~home:cluster.Cluster.supervisor_host
              ~config:{ Blobseer.Compactor.policy })
          policy
      in
      let injector = Option.bind compactor (fun c -> with_faults cluster c) in
      let write ~offset payload =
        Faults.with_retries engine ~retries:10 ~label:"chains.write" (fun () ->
            Blobseer.Client.write blob ~from:home ~offset payload)
      in
      ignore (write ~offset:0 (Payload.pattern ~seed:1L capacity));
      let epoch_times = ref [] in
      for e = 1 to depth do
        let t0 = Cluster.now cluster in
        let offset, len = dirty_region ~capacity e in
        ignore (write ~offset (Payload.pattern ~seed:(epoch_seed e) len));
        epoch_times := (Cluster.now cluster -. t0) :: !epoch_times;
        Option.iter try_scan compactor
      done;
      Option.iter Faults.stop injector;
      (* No-fault settle: recover any interrupted transaction, let the
         retention converge and the deferred sweep reclaim what the last
         real pass queued. *)
      Option.iter (fun c -> for _ = 1 to 4 do try_scan c done) compactor;
      let reader = (reader_node cluster).Cluster.host in
      let pre = phys_read cluster in
      let t0 = Cluster.now cluster in
      let image =
        Faults.with_retries engine ~retries:10 ~label:"chains.restart" (fun () ->
            let latest = Blobseer.Client.latest_version blob ~from:reader in
            Blobseer.Client.read blob ~from:reader ~version:latest ~offset:0 ~len:capacity)
      in
      let restart_s = Cluster.now cluster -. t0 in
      let vm = Blobseer.Client.version_manager service in
      let outcome =
        {
          restart_s;
          restart_digest = Payload.digest image;
          read_amp = float_of_int (phys_read cluster - pre) /. float_of_int capacity;
          epoch_mean_s = Stats.mean !epoch_times;
          reclaimed_bytes =
            (match compactor with
            | Some c -> (Blobseer.Compactor.stats c).Blobseer.Compactor.bytes_reclaimed
            | None -> 0);
          live_versions = Blobseer.Client.versions blob;
          retired_versions =
            Blobseer.Version_manager.retired_versions vm
              ~blob:(Blobseer.Client.blob_id blob);
          cstats = Option.map Blobseer.Compactor.stats compactor;
          engine;
        }
      in
      let injected = match injector with Some inj -> Faults.applied inj | None -> [] in
      (outcome, injected))

let bs_run scale ?policy ~depth () = fst (bs_harness scale ?policy ~depth ())

(* ------------------------------------------------------------------ *)
(* Chaos harness *)

type chaos = { c_outcome : bs_outcome; c_injected : Faults.event list }

(* Fault handlers for the chains rig: transient disk errors on the
   compute-node disks, compactor fail-stop/armed crashes by role. There
   is no scrubber or supervisor here, so every other action is a no-op. *)
let chains_handlers cluster compactor =
  let rotation = ref 0 in
  let arm point =
    Blobseer.Compactor.arm_crash compactor
      (match point mod 3 with
      | 0 -> Blobseer.Compactor.Before_flatten
      | 1 -> Blobseer.Compactor.Mid_retire
      | _ -> Blobseer.Compactor.After_retire)
  in
  {
    Faults.null_handlers with
    Faults.transient_disk =
      (fun ~target ~ops ->
        let n = Cluster.node_count cluster in
        Disk.inject_transient (Cluster.node cluster (target mod n)).Cluster.disk ~ops);
    crash_compaction = (fun ~point -> arm point);
    crash_service =
      (fun i ->
        match i with
        | 1 -> Blobseer.Compactor.crash compactor
        | 2 ->
            arm !rotation;
            incr rotation
        | _ -> ());
  }

let chaos_run (scale : Scale.t) ~script ~depth () =
  let with_faults cluster compactor =
    Some
      (Faults.start cluster.Cluster.engine
         ~script:(script cluster compactor)
         ~handlers:(chains_handlers cluster compactor))
  in
  let policy = Blobseer.Retention.Keep_last scale.Scale.chains_keep_last in
  let outcome, injected = bs_harness scale ~policy ~with_faults ~depth () in
  { c_outcome = outcome; c_injected = injected }

(* ------------------------------------------------------------------ *)
(* qcow2 side *)

type q_outcome = {
  q_restart_s : float;
  q_restart_digest : int64;
  q_read_amp : float;
  q_epoch_mean_s : float;
  q_reclaimed_bytes : int;
  q_chain_levels : int;
}

(* One qcow2 run: a full export, [depth] dirty epochs each ending in an
   incremental export, a chain collapse whenever the chain outgrows
   [scale.chains_keep_last] (when [collapse]), then a timed restart read
   on another node backed by the final chain. *)
let q_run (scale : Scale.t) ~collapse ~depth () =
  let cluster =
    Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal
  in
  Cluster.run cluster (fun () ->
      let engine = cluster.Cluster.engine in
      let node0 = Cluster.node cluster 0 in
      let capacity = scale.Scale.chains_image_bytes in
      let img =
        Vdisk.Qcow2.create engine ~host:node0.Cluster.host ~local_disk:node0.Cluster.disk
          ~capacity ~backing:Vdisk.Qcow2.No_backing ~name:"chains" ()
      in
      Vdisk.Qcow2.write img ~offset:0 (Payload.pattern ~seed:1L capacity);
      let tip =
        ref
          (Vdisk.Qcow2.export img cluster.Cluster.pvfs ~from:node0.Cluster.host
             ~path:"/chains/l0.qcow2")
      in
      let reclaimed = ref 0 in
      let epoch_times = ref [] in
      for e = 1 to depth do
        let t0 = Cluster.now cluster in
        let offset, len = dirty_region ~capacity e in
        Vdisk.Qcow2.write img ~offset (Payload.pattern ~seed:(epoch_seed e) len);
        tip :=
          Vdisk.Qcow2.export_incremental img cluster.Cluster.pvfs ~from:node0.Cluster.host
            ~path:(Fmt.str "/chains/l%d.qcow2" e)
            ~base:!tip;
        epoch_times := (Cluster.now cluster -. t0) :: !epoch_times;
        if collapse && Vdisk.Qcow2.remote_chain_depth !tip > scale.Scale.chains_keep_last
        then begin
          let collapsed, stats =
            Vdisk.Qcow2.collapse_chain !tip ~from:node0.Cluster.host
              ~path:(Fmt.str "/chains/c%d.qcow2" e)
          in
          tip := collapsed;
          reclaimed := !reclaimed + stats.Vdisk.Qcow2.bytes_reclaimed
        end
      done;
      let rnode = reader_node cluster in
      let rimg =
        Vdisk.Qcow2.create engine ~host:rnode.Cluster.host ~local_disk:rnode.Cluster.disk
          ~capacity
          ~backing:(Vdisk.Qcow2.Qcow2_remote !tip)
          ~name:"chains-restart" ()
      in
      let pre = phys_read cluster in
      let t0 = Cluster.now cluster in
      let image = Vdisk.Qcow2.read rimg ~offset:0 ~len:capacity in
      let q_restart_s = Cluster.now cluster -. t0 in
      {
        q_restart_s;
        q_restart_digest = Payload.digest image;
        q_read_amp = float_of_int (phys_read cluster - pre) /. float_of_int capacity;
        q_epoch_mean_s = Stats.mean !epoch_times;
        q_reclaimed_bytes = !reclaimed;
        q_chain_levels = Vdisk.Qcow2.remote_chain_depth !tip;
      })

(* ------------------------------------------------------------------ *)
(* Tables *)

type variant = {
  label : string;
  restart : float;
  readamp : float;
  reclaimed_mb : float;
  epoch : float;
  interference : bool;  (** include in the interference table *)
}

let run_depth (scale : Scale.t) ~progress depth =
  let keep = Blobseer.Retention.Keep_last scale.Scale.chains_keep_last in
  let thin = Blobseer.Retention.Thin_exponential { base = scale.Scale.chains_thin_base } in
  let bs label ?policy () =
    progress (Fmt.str "chains: depth=%d %s" depth label);
    let o = bs_run scale ?policy ~depth () in
    {
      label;
      restart = o.restart_s;
      readamp = o.read_amp;
      reclaimed_mb = float_of_int o.reclaimed_bytes /. float_of_int Size.mib;
      epoch = o.epoch_mean_s;
      interference = true;
    }
  in
  let q label ~collapse () =
    progress (Fmt.str "chains: depth=%d %s" depth label);
    let o = q_run scale ~collapse ~depth () in
    {
      label;
      restart = o.q_restart_s;
      readamp = o.q_read_amp;
      reclaimed_mb = float_of_int o.q_reclaimed_bytes /. float_of_int Size.mib;
      epoch = o.q_epoch_mean_s;
      interference = false;
    }
  in
  [
    bs "blobcr off" ();
    bs (Fmt.str "blobcr %s" (Blobseer.Retention.policy_to_string keep)) ~policy:keep ();
    bs (Fmt.str "blobcr %s" (Blobseer.Retention.policy_to_string thin)) ~policy:thin ();
    q "qcow2 chain" ~collapse:false ();
    q "qcow2 collapse" ~collapse:true ();
  ]

let tables (scale : Scale.t) ~progress =
  let points =
    List.map (fun depth -> (depth, run_depth scale ~progress depth)) scale.Scale.chains_depths
  in
  let series ?(only = fun _ -> true) f =
    Stats.group
      ~key:(fun (_, v) -> v.label)
      ~label:Fun.id
      ~x:(fun (depth, _) -> float_of_int depth)
      ~y:(fun (_, v) -> f v)
      (List.concat_map
         (fun (depth, vs) -> List.filter_map (fun v -> if only v then Some (depth, v) else None) vs)
         points)
  in
  [
    ( "chains-restart",
      Stats.table ~title:"Restart latency from the newest snapshot vs chain depth"
        ~x_label:"chain depth" ~y_label:"seconds"
        (series (fun v -> v.restart)) );
    ( "chains-readamp",
      Stats.table ~title:"Restart read amplification (physical / logical bytes)"
        ~x_label:"chain depth" ~y_label:"ratio"
        (series (fun v -> v.readamp)) );
    ( "chains-reclaimed",
      Stats.table ~title:"Bytes reclaimed from retired snapshot history"
        ~x_label:"chain depth" ~y_label:"MB"
        (series ~only:(fun v -> v.label <> "blobcr off") (fun v -> v.reclaimed_mb)) );
    ( "chains-interference",
      Stats.table
        ~title:"Foreground checkpoint-epoch latency, compaction on vs off"
        ~x_label:"chain depth" ~y_label:"seconds"
        (series ~only:(fun v -> v.interference) (fun v -> v.epoch)) );
  ]
