open Simcore
open Blobcr
open Workloads

type point = {
  kind : Approach.kind;
  mtbf : float;
  interval : int;
  makespan : float;
  utilization : float;
  wasted : float;
  recoveries : int;
  finished : bool;
  mean_recovery_latency : float;
  checkpoint_cost : float;
}

let kinds = [ Approach.Blobcr; Approach.Qcow2_disk ]

(* One work unit = one CM1 iteration: the checkpoint interval is then
   directly the number of iterations between global checkpoints. *)
let iters_per_unit = 1

let unit_time (scale : Scale.t) =
  float_of_int iters_per_unit *. scale.Scale.cm1_config.Cm1.compute_per_iteration

let run_point (scale : Scale.t) ~progress ~kind ~mtbf ~interval =
  (* Chunk replication 3+ (BlobSeer's usual degree) so snapshots survive a
     crashed node's co-located provider plus one more provider fail-stop —
     the paper's repository is built for exactly this. *)
  let cal =
    {
      scale.Scale.cal with
      Calibration.blobseer =
        {
          scale.Scale.cal.Calibration.blobseer with
          Blobseer.Types.replication =
            max 3 scale.Scale.cal.Calibration.blobseer.Blobseer.Types.replication;
        };
    }
  in
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule cal in
  Cluster.run cluster (fun () ->
      let units = scale.Scale.availability_units in
      let workload =
        Cm1.supervised_workload cluster scale.Scale.cm1_config ~iters_per_unit
      in
      let nominal = float_of_int units *. unit_time scale in
      (* Fault horizon: generous multiple of the failure-free runtime, a
         deterministic function of the scale (never wall clock). *)
      let horizon = (nominal *. 4.0) +. 120.0 in
      let policy = { Supervisor.default_policy with checkpoint_interval = interval } in
      (* Drawn before the run: a derived stream depends on the seed alone. *)
      let rng = Engine.derived_rng cluster.Cluster.engine "availability.fault-script" in
      let faults =
        Faults.of_profile ~rng ~mtbf ~horizon
          ~hosts:(Cluster.node_count cluster)
          ~providers:(Cluster.node_count cluster) ()
      in
      let t0 = Cluster.now cluster in
      let report =
        Supervisor.report
          (Supervisor.run cluster ~kind ~policy ~faults ~id:"avail"
             ~gang:scale.Scale.availability_gang ~units ~workload ())
      in
      let injected = report.Supervisor.injected in
      List.iter (fun e -> progress (Fmt.str "    %a" Faults.pp_event e)) injected;
      progress
        (Fmt.str "  %d fault(s) injected, %d recover(ies), finished=%b" (List.length injected)
           report.Supervisor.recoveries report.Supervisor.finished);
      let makespan = Cluster.now cluster -. t0 in
      let completed_compute = float_of_int report.Supervisor.units_completed *. unit_time scale in
      {
        kind;
        mtbf;
        interval;
        makespan;
        utilization = (if makespan > 0.0 then completed_compute /. makespan else 0.0);
        wasted = report.Supervisor.wasted_time;
        recoveries = report.Supervisor.recoveries;
        finished = report.Supervisor.finished;
        mean_recovery_latency =
          (match report.Supervisor.recovery_latencies with
          | [] -> 0.0
          | ls -> Stats.mean ls);
        checkpoint_cost =
          (if report.Supervisor.checkpoints > 0 then
             report.Supervisor.checkpoint_time /. float_of_int report.Supervisor.checkpoints
           else 0.0);
      })

let sweep (scale : Scale.t) ~progress =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun mtbf ->
          List.map
            (fun interval ->
              progress
                (Fmt.str "availability: %s mtbf=%g interval=%d" (Approach.kind_name kind)
                   mtbf interval);
              run_point scale ~progress ~kind ~mtbf ~interval)
            scale.Scale.availability_intervals)
        scale.Scale.availability_mtbfs)
    kinds

let series_label kind mtbf = Fmt.str "%s mtbf=%g" (Approach.kind_name kind) mtbf

(* Young's first-order optimum T_opt = sqrt(2 C M): with the measured mean
   checkpoint cost C and host MTBF M, the interval (in work units) that
   minimizes expected lost plus checkpoint overhead. *)
let youngs_series points scale =
  List.filter_map
    (fun kind ->
      let ps = List.filter (fun p -> p.kind = kind && p.checkpoint_cost > 0.0) points in
      match ps with
      | [] -> None
      | _ ->
          let cost = Stats.mean (List.map (fun p -> p.checkpoint_cost) ps) in
          let s = Stats.series (Fmt.str "%s youngs-opt-units" (Approach.kind_name kind)) in
          List.iter
            (fun mtbf ->
              Stats.add s ~x:mtbf ~y:(sqrt (2.0 *. cost *. mtbf) /. unit_time scale))
            (List.sort_uniq Float.compare (List.map (fun p -> p.mtbf) points));
          Some s)
    kinds

(* Series run in [kinds] order, each kind's MTBFs ascending. *)
let series_order (k1, m1) (k2, m2) =
  let rank k = Option.get (List.find_index (( = ) k) kinds) in
  match Int.compare (rank k1) (rank k2) with 0 -> Float.compare m1 m2 | c -> c

let tables (scale : Scale.t) ~progress =
  let points = sweep scale ~progress in
  let table name ~title ~y_label y =
    ( name,
      Stats.table ~title ~x_label:"interval-units" ~y_label
        (Stats.group ~order:series_order ~key:(fun p -> (p.kind, p.mtbf))
           ~label:(fun (kind, mtbf) -> series_label kind mtbf)
           ~x:(fun p -> float_of_int p.interval)
           ~y points) )
  in
  [
    table "availability" ~title:"Effective utilization vs checkpoint interval under host faults"
      ~y_label:"utilization" (fun p -> p.utilization);
    table "availability-wasted" ~title:"Wasted (rolled-back) work time" ~y_label:"seconds"
      (fun p -> p.wasted);
    table "availability-recovery" ~title:"Mean recovery latency (detection to resume)"
      ~y_label:"seconds" (fun p -> p.mean_recovery_latency);
    ( "availability-youngs",
      Stats.table
        ~title:"Young's-formula optimal checkpoint interval (from measured checkpoint cost)"
        ~x_label:"mtbf-seconds" ~y_label:"interval-units" (youngs_series points scale) );
  ]
