open Simcore
open Blobcr
open Workloads

(* ------------------------------------------------------------------ *)
(* Shared chaos harness: a supervised CM1 gang with a background scrubber
   runs to completion while a fault script corrupts replicas, crashes the
   version manager mid-COMMIT and crash-stops hosts. Returns everything
   the callers assert on: the supervisor report, the restart-visible
   application state (digests of every dumped subdomain file), the
   stopped scrubber and the client's integrity-failover count. *)

type chaos = {
  report : Supervisor.report;
  digests : (string * int64) list;  (** dumped subdomain files, sorted by path *)
  audit : string list;
  scrubber : Blobseer.Scrubber.t;
  integrity_failures : int;
  engine : Engine.t;
}

(* The acceptance scenario: one replica silently corrupted, the version
   manager crashed mid-apply of its next COMMIT, then a whole machine
   crash-stopped — restart must ride journal recovery, checksum failover
   and scrub repair. *)
let acceptance_script =
  [
    { Faults.at = 8.5; action = Faults.Silent_corruption { provider = 1; chunk = 5 } };
    { Faults.at = 9.0; action = Faults.Crash_commit { point = 1 } };
    { Faults.at = 18.0; action = Faults.Crash_host 0 };
  ]

let final_subdomain_digests sup =
  List.concat_map
    (fun (inst : Approach.instance) ->
      let fs = Vmsim.Vm.fs inst.Approach.vm in
      List.filter_map
        (fun path ->
          if String.starts_with ~prefix:"/ckpt/cm1/" path then
            Some (path, Payload.digest (Vmsim.Guest_fs.read_file fs ~path))
          else None)
        (Vmsim.Guest_fs.list_files fs))
    (Supervisor.instances sup)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let supervised (scale : Scale.t) ~script ~replication ~scrub_interval ~gang ~units ~policy =
  let cal =
    {
      scale.Scale.cal with
      Calibration.blobseer =
        { scale.Scale.cal.Calibration.blobseer with Blobseer.Types.replication };
    }
  in
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule cal in
  Cluster.run cluster (fun () ->
      let workload = Cm1.supervised_workload cluster scale.Scale.cm1_config ~iters_per_unit:1 in
      let sup =
        Supervisor.run cluster ~kind:Approach.Blobcr ~policy
          ~scrub:{ Blobseer.Scrubber.interval = scrub_interval }
          ~faults:(script cluster) ~id:"dur" ~gang ~units ~workload ()
      in
      {
        report = Supervisor.report sup;
        digests = final_subdomain_digests sup;
        audit = Supervisor.audit sup;
        scrubber = Option.get (Supervisor.scrubber sup);
        integrity_failures = Blobseer.Client.integrity_failures cluster.Cluster.service;
        engine = cluster.Cluster.engine;
      })

let chaos_run scale ?(script = fun _ -> acceptance_script) ?(gang = 2) ?(units = 12)
    ?(policy = Supervisor.default_policy) () =
  supervised scale ~script ~replication:2 ~scrub_interval:4.0 ~gang ~units ~policy

let render_scrub_log chaos =
  String.concat "\n"
    (List.map (Fmt.str "%a" Blobseer.Scrubber.pp_event) (Blobseer.Scrubber.events chaos.scrubber))

(* ------------------------------------------------------------------ *)
(* Sweep: corruption intensity x replication x scrub interval. *)

type point = {
  corrupt_weight : int;
  replication : int;
  scrub_interval : float;
  finished : bool;
  recoveries : int;
  corruptions : int;  (** silent-corruption events actually applied *)
  integrity_failovers : int;
  repairs : int;
  repair_bytes : int;
  unrepairable : int;
  checkpoint_cost : float;
}

let run_point (scale : Scale.t) ~progress ~corrupt_weight ~replication ~scrub_interval =
  let horizon =
    (float_of_int scale.Scale.durability_units
    *. scale.Scale.cm1_config.Cm1.compute_per_iteration *. 3.0)
    +. 90.0
  in
  (* Host crashes force restarts; corruption eats replicas underneath
     them. No transient/degrade noise: the sweep isolates the durability
     path. *)
  let profile cluster =
    let rng = Engine.derived_rng cluster.Cluster.engine "durability-fault-script" in
    Faults.of_profile ~rng ~mtbf:scale.Scale.durability_mtbf ~horizon
      ~hosts:(Cluster.node_count cluster)
      ~providers:(Cluster.node_count cluster)
      ~weights:(3, 1, 0, 0) ~corrupt_weight ()
  in
  let chaos =
    supervised scale ~script:profile ~replication ~scrub_interval
      ~gang:scale.Scale.durability_gang ~units:scale.Scale.durability_units
      ~policy:Supervisor.default_policy
  in
  let injected = chaos.report.Supervisor.injected in
  let corruptions =
    List.length
      (List.filter
         (fun (e : Faults.event) ->
           match e.Faults.action with Faults.Silent_corruption _ -> true | _ -> false)
         injected)
  in
  let scrub = Blobseer.Scrubber.stats chaos.scrubber in
  progress
    (Fmt.str "  %d fault(s) (%d corruption(s)), %d recover(ies), %d repair(s), finished=%b"
       (List.length injected) corruptions chaos.report.Supervisor.recoveries
       scrub.Blobseer.Scrubber.repairs chaos.report.Supervisor.finished);
  {
    corrupt_weight;
    replication;
    scrub_interval;
    finished = chaos.report.Supervisor.finished;
    recoveries = chaos.report.Supervisor.recoveries;
    corruptions;
    integrity_failovers = chaos.integrity_failures;
    repairs = scrub.Blobseer.Scrubber.repairs;
    repair_bytes = scrub.Blobseer.Scrubber.repair_bytes;
    unrepairable = scrub.Blobseer.Scrubber.unrepairable;
    checkpoint_cost =
      (if chaos.report.Supervisor.checkpoints > 0 then
         chaos.report.Supervisor.checkpoint_time
         /. float_of_int chaos.report.Supervisor.checkpoints
       else 0.0);
  }

let sweep (scale : Scale.t) ~progress =
  List.concat_map
    (fun replication ->
      List.concat_map
        (fun scrub_interval ->
          List.map
            (fun corrupt_weight ->
              progress
                (Fmt.str "durability: r=%d scrub=%gs corrupt-weight=%d" replication
                   scrub_interval corrupt_weight);
              run_point scale ~progress ~corrupt_weight ~replication ~scrub_interval)
            scale.Scale.durability_corrupt_weights)
        scale.Scale.durability_scrub_intervals)
    scale.Scale.durability_replications

let series_label r interval = Fmt.str "r=%d scrub=%gs" r interval

let tables (scale : Scale.t) ~progress =
  let points = sweep scale ~progress in
  let table name ~title ~y_label y =
    ( name,
      Stats.table ~title ~x_label:"corrupt-weight" ~y_label
        (Stats.group
           ~order:(fun (r1, i1) (r2, i2) ->
             match Int.compare r1 r2 with 0 -> Float.compare i1 i2 | c -> c)
           ~key:(fun p -> (p.replication, p.scrub_interval))
           ~label:(fun (r, interval) -> series_label r interval)
           ~x:(fun p -> float_of_int p.corrupt_weight)
           ~y points) )
  in
  [
    table "durability" ~title:"Restart success under silent corruption (1 = run completed)"
      ~y_label:"success" (fun p -> if p.finished then 1.0 else 0.0);
    table "durability-repair" ~title:"Scrub repair traffic (bytes re-replicated)"
      ~y_label:"bytes" (fun p -> float_of_int p.repair_bytes);
    table "durability-failover"
      ~title:"Client checksum failovers (corrupt replicas detected on read)"
      ~y_label:"failovers" (fun p -> float_of_int p.integrity_failovers);
    table "durability-overhead" ~title:"Mean committed checkpoint duration under scrub load"
      ~y_label:"seconds" (fun p -> p.checkpoint_cost);
  ]
