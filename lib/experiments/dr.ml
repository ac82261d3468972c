open Blobcr
open Workloads

(* ------------------------------------------------------------------ *)
(* Harness: a supervised CM1 gang on a two-site cluster (standby fed by
   the journal-shipping replicator), with a site disaster injected while
   the run is in flight. The supervisor detects the dead gang, promotes
   the standby and restarts from the newest fully replicated checkpoint;
   the outcome carries the RPO/RTO actually incurred. *)

type outcome = {
  report : Supervisor.report;
  digests : (string * int64) list;
  audit : string list;
  repl_stats : Blobseer.Replicator.stats;
  failed_over : bool;
  rpo_versions : int;
  rpo_units : int;
  rto : float;
  integrity_failures : int;
  engine : Simcore.Engine.t;
}

let failover_of_events events =
  List.fold_left
    (fun acc e ->
      match e with
      | Supervisor.Failed_over { rpo_versions; rpo_units; rto; _ } ->
          Some (rpo_versions, rpo_units, rto)
      | _ -> acc)
    None events

(* Crash the site a beat after the first global checkpoint's records
   become eligible for shipping (the shipper batches: commit + ship_delay),
   so the disaster hits with publications still inside the replication
   pipeline — mid-fetch or queued behind the window, not merely parked. *)
let default_crash_at (scale : Scale.t) ~interval =
  (float_of_int interval *. scale.Scale.cm1_config.Cm1.compute_per_iteration)
  +. Blobseer.Replicator.default_config.Blobseer.Replicator.ship_delay +. 0.6

let dr_run (scale : Scale.t) ?(config = Blobseer.Replicator.default_config) ?crash_at ~interval
    ~gang ~units () =
  let cluster =
    Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule ~dr:config
      scale.Scale.cal
  in
  let crash_at =
    match crash_at with Some t -> t | None -> default_crash_at scale ~interval
  in
  Cluster.run cluster (fun () ->
      let workload = Cm1.supervised_workload cluster scale.Scale.cm1_config ~iters_per_unit:1 in
      let sup =
        Supervisor.run cluster ~kind:Approach.Blobcr
          ~policy:{ Supervisor.default_policy with checkpoint_interval = interval }
          ~faults:[ { Faults.at = crash_at; action = Faults.Crash_site } ]
          ~id:"dr" ~gang ~units ~workload ()
      in
      let report = Supervisor.report sup in
      let repl =
        match Cluster.replicator cluster with
        | Some r -> r
        | None -> invalid_arg "Dr.dr_run: cluster has no standby site"
      in
      let rpo_versions, rpo_units, rto =
        match failover_of_events report.Supervisor.events with
        | Some f -> f
        | None -> (0, 0, 0.0)
      in
      let integrity_failures =
        Blobseer.Client.integrity_failures cluster.Cluster.service
        +
        match cluster.Cluster.dr with
        | Some d when d.Cluster.promoted ->
            Blobseer.Client.integrity_failures d.Cluster.primary_service
        | _ -> 0
      in
      {
        report;
        digests = Durability.final_subdomain_digests sup;
        audit = Supervisor.audit sup;
        repl_stats = Blobseer.Replicator.stats repl;
        failed_over = failover_of_events report.Supervisor.events <> None;
        rpo_versions;
        rpo_units;
        rto;
        integrity_failures;
        engine = cluster.Cluster.engine;
      })

(* Control: same supervised run, same interval, no standby site and no
   disaster — the primary-commit overhead baseline. *)
let control_run (scale : Scale.t) ?(interval = 2) ?(gang = 2) ?(units = 6) () =
  let cluster =
    Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal
  in
  Cluster.run cluster (fun () ->
      let workload = Cm1.supervised_workload cluster scale.Scale.cm1_config ~iters_per_unit:1 in
      Supervisor.report
        (Supervisor.run cluster ~kind:Approach.Blobcr
           ~policy:{ Supervisor.default_policy with checkpoint_interval = interval }
           ~id:"dr-ctl" ~gang ~units ~workload ()))

let committed_costs (report : Supervisor.report) =
  List.filter_map
    (fun e ->
      match e with
      | Supervisor.Checkpoint_committed { elapsed; _ } -> Some elapsed
      | _ -> None)
    report.Supervisor.events

(* Committed-checkpoint durations on the primary site only: commits after
   a failover run on the promoted standby and fold recovery recomputation
   into their cost, which would misattribute recovery work as replication
   interference. *)
let primary_checkpoint_costs (report : Supervisor.report) =
  let failover_at =
    List.fold_left
      (fun acc e ->
        match e with Supervisor.Failed_over { at; _ } -> Some at | _ -> acc)
      None report.Supervisor.events
  in
  List.filter_map
    (fun e ->
      match e with
      | Supervisor.Checkpoint_committed { at; elapsed; _ }
        when (match failover_at with Some f -> at <= f | None -> true) ->
          Some elapsed
      | _ -> None)
    report.Supervisor.events

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

(* ------------------------------------------------------------------ *)
(* Sweep: link latency x checkpoint interval x window. *)

type point = {
  link_latency : float;  (** WAN one-way latency, seconds *)
  window : int;  (** replication in-flight window *)
  interval : int;  (** checkpoint interval, work units *)
  rpo_versions : int;
  rpo_units : int;
  rto : float;
  max_lag : int;  (** replication-lag high-water mark, records *)
  overhead_pct : float;
      (** mean pre-failover committed-checkpoint duration with DR over the
          control's mean at the same positions: (cost / control − 1) × 100 *)
}

let run_point (scale : Scale.t) ~progress ~link_latency ~window ~interval ~control =
  let config =
    { Blobseer.Replicator.default_config with link_latency; window }
  in
  let o =
    dr_run scale ~config ~interval ~gang:scale.Scale.dr_gang ~units:scale.Scale.dr_units ()
  in
  (* Positional comparison: the first checkpoint ships the full image and
     is inherently pricier, so the DR run's pre-failover commits are held
     against the control's commits at the same positions — not against the
     control's whole-run mean. *)
  let dr_costs = primary_checkpoint_costs o.report in
  let checkpoint_cost = Simcore.Stats.mean dr_costs in
  let checkpoint_cost_nodr =
    Simcore.Stats.mean (take (List.length dr_costs) (committed_costs control))
  in
  let overhead_pct =
    if checkpoint_cost_nodr > 0.0 then
      (checkpoint_cost /. checkpoint_cost_nodr -. 1.0) *. 100.0
    else 0.0
  in
  progress
    (Fmt.str
       "  finished=%b failed_over=%b rpo=%d version(s)/%d unit(s) rto=%.2fs max-lag=%d \
        ckpt=%.3fs (+%.1f%%)"
       o.report.Supervisor.finished o.failed_over o.rpo_versions o.rpo_units o.rto
       o.repl_stats.Blobseer.Replicator.max_lag checkpoint_cost overhead_pct);
  {
    link_latency;
    window;
    interval;
    rpo_versions = o.rpo_versions;
    rpo_units = o.rpo_units;
    rto = o.rto;
    max_lag = o.repl_stats.Blobseer.Replicator.max_lag;
    overhead_pct;
  }

let sweep (scale : Scale.t) ~progress =
  List.concat_map
    (fun interval ->
      progress (Fmt.str "dr: control (no standby), interval=%d" interval);
      let control = control_run scale ~interval ~gang:scale.Scale.dr_gang ~units:scale.Scale.dr_units () in
      List.concat_map
        (fun link_latency ->
          List.map
            (fun window ->
              progress
                (Fmt.str "dr: link=%gms window=%d interval=%d" (link_latency *. 1000.0)
                   window interval);
              run_point scale ~progress ~link_latency ~window ~interval ~control)
            scale.Scale.dr_windows)
        scale.Scale.dr_link_latencies)
    scale.Scale.dr_intervals

let series_label latency interval = Fmt.str "link=%gms int=%d" (latency *. 1000.0) interval

let tables (scale : Scale.t) ~progress =
  let points = sweep scale ~progress in
  let table name ~title ~y_label y =
    ( name,
      Simcore.Stats.table ~title ~x_label:"window" ~y_label
        (Simcore.Stats.group
           ~order:(fun (l1, i1) (l2, i2) ->
             match Float.compare l1 l2 with 0 -> Int.compare i1 i2 | c -> c)
           ~key:(fun p -> (p.link_latency, p.interval))
           ~label:(fun (latency, interval) -> series_label latency interval)
           ~x:(fun p -> float_of_int p.window)
           ~y points) )
  in
  [
    table "dr-rpo" ~title:"RPO: versions lost at site failover vs replication window"
      ~y_label:"versions lost" (fun p -> float_of_int p.rpo_versions);
    table "dr-rpo-units" ~title:"RPO: work units rolled back at site failover"
      ~y_label:"units" (fun p -> float_of_int p.rpo_units);
    table "dr-rto" ~title:"RTO: failure detection to gang running on the standby"
      ~y_label:"seconds" (fun p -> p.rto);
    table "dr-lag" ~title:"Replication lag high-water mark (records)" ~y_label:"records"
      (fun p -> float_of_int p.max_lag);
    table "dr-overhead" ~title:"Primary committed-checkpoint overhead vs no-standby control"
      ~y_label:"percent" (fun p -> p.overhead_pct);
  ]
