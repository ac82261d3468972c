open Simcore
open Blobcr
open Workloads

let mib = float_of_int Size.mib

let mid_n (scale : Scale.t) =
  let counts = scale.Scale.instance_counts in
  List.nth counts (List.length counts / 2)

let pp_progress progress fmt = Fmt.kstr progress fmt

(* ------------------------------------------------------------------ *)

let prefetch (scale : Scale.t) ~progress =
  let combo = Option.get (Combos.find "BlobCR-app") in
  let run enabled =
    let series =
      Stats.series (if enabled then "prefetch on" else "prefetch off")
    in
    List.iter
      (fun n ->
        let scale =
          { scale with Scale.cal = { scale.Scale.cal with Calibration.prefetch_enabled = enabled } }
        in
        let p = Synthetic_sweep.run_point scale ~combo ~n ~buffer:scale.Scale.buffer_small in
        pp_progress progress "prefetch=%b n=%d restart=%.2fs" enabled n
          p.Synthetic_sweep.restart_time;
        Stats.add series ~x:(float_of_int n) ~y:p.Synthetic_sweep.restart_time)
      scale.Scale.instance_counts;
    series
  in
  Stats.table ~title:"Ablation: adaptive prefetching (BlobCR restart)"
    ~x_label:"instances" ~y_label:"restart time (s)"
    [ run true; run false ]

let stripe_size (scale : Scale.t) ~progress =
  let combo = Option.get (Combos.find "BlobCR-app") in
  let n = mid_n scale in
  let ckpt = Stats.series "checkpoint (s)" and restart = Stats.series "restart (s)" in
  List.iter
    (fun stripe ->
      let scale =
        {
          scale with
          Scale.cal =
            {
              scale.Scale.cal with
              Calibration.blobseer =
                { scale.Scale.cal.Calibration.blobseer with Blobseer.Types.stripe_size = stripe };
            };
        }
      in
      let p = Synthetic_sweep.run_point scale ~combo ~n ~buffer:scale.Scale.buffer_small in
      pp_progress progress "stripe=%s ckpt=%.2fs restart=%.2fs" (Size.to_string stripe)
        p.Synthetic_sweep.checkpoint_time p.Synthetic_sweep.restart_time;
      let x = float_of_int stripe /. float_of_int Size.kib in
      Stats.add ckpt ~x ~y:p.Synthetic_sweep.checkpoint_time;
      Stats.add restart ~x ~y:p.Synthetic_sweep.restart_time)
    [ 64 * Size.kib; 128 * Size.kib; 256 * Size.kib; 512 * Size.kib; Size.mib ];
  Stats.table
    ~title:
      (Fmt.str "Ablation: stripe size (BlobCR-app, %d instances) — the 256 KiB trade-off" n)
    ~x_label:"stripe (KiB)" ~y_label:"time (s)" [ ckpt; restart ]

let replication (scale : Scale.t) ~progress =
  let combo = Option.get (Combos.find "BlobCR-app") in
  let n = mid_n scale in
  let ckpt = Stats.series "checkpoint (s)" and storage = Stats.series "storage (MB)" in
  List.iter
    (fun r ->
      let scale =
        {
          scale with
          Scale.cal =
            {
              scale.Scale.cal with
              Calibration.blobseer =
                { scale.Scale.cal.Calibration.blobseer with Blobseer.Types.replication = r };
            };
        }
      in
      let p = Synthetic_sweep.run_point scale ~combo ~n ~buffer:scale.Scale.buffer_small in
      pp_progress progress "replication=%d ckpt=%.2fs storage=%.0fMB" r
        p.Synthetic_sweep.checkpoint_time
        (float_of_int p.Synthetic_sweep.storage_bytes /. mib);
      Stats.add ckpt ~x:(float_of_int r) ~y:p.Synthetic_sweep.checkpoint_time;
      Stats.add storage ~x:(float_of_int r)
        ~y:(float_of_int p.Synthetic_sweep.storage_bytes /. mib))
    [ 1; 2; 3 ];
  Stats.table
    ~title:(Fmt.str "Ablation: replication factor (BlobCR-app, %d instances)" n)
    ~x_label:"replicas" ~y_label:"checkpoint cost" [ ckpt; storage ]

(* Incremental COMMIT vs re-pushing the whole local image each round. *)
let incremental (scale : Scale.t) ~progress =
  let rounds = scale.Scale.successive_checkpoints in
  let run ~taint label =
    let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal in
    Cluster.run cluster (fun () ->
        let inst =
          Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"vm0"
        in
        let bench = Synthetic.start inst ~buffer_bytes:scale.Scale.buffer_large in
        let series = Stats.series label in
        for round = 1 to rounds do
          Synthetic.refill bench;
          Synthetic.dump_app bench;
          if taint then begin
            match inst.Approach.stack with
            | Approach.Mirror_stack m -> Vdisk.Mirror.taint_all m
            | _ -> assert false
          end;
          let t0 = Cluster.now cluster in
          let _ = Approach.request_checkpoint cluster inst in
          let dt = Cluster.now cluster -. t0 in
          pp_progress progress "%s round %d: %.2fs" label round dt;
          Stats.add series ~x:(float_of_int round) ~y:dt
        done;
        series)
  in
  let incr = run ~taint:false "incremental commit" in
  let full = run ~taint:true "full re-commit" in
  Stats.table ~title:"Ablation: incremental snapshotting (successive checkpoints, one instance)"
    ~x_label:"checkpoint #" ~y_label:"time (s)" [ incr; full ]
