(* Tests for the fault-injection subsystem and the recovery machinery
   built on it: injector determinism, typed transient disk errors and the
   bounded-retry discipline, partial-failure reporting in the coordinated
   protocol, supervised recovery of CM1 under injected faults, and the
   availability sweep. *)

open Simcore
open Storage
open Vmsim
open Blobcr
open Workloads

let run engine f =
  let result = ref None in
  let _ = Engine.Fiber.spawn engine ~name:"test-main" (fun () -> result := Some (f ())) in
  while !result = None && Engine.step engine do
    ()
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Injector: scripts and determinism *)

let profile_script ~seed =
  Faults.of_profile ~rng:(Rng.create seed) ~mtbf:5.0 ~horizon:60.0 ~hosts:4 ~providers:4 ()

let test_profile_deterministic () =
  let s1 = profile_script ~seed:13 and s2 = profile_script ~seed:13 in
  Alcotest.(check bool) "same seed, same script" true (s1 = s2);
  Alcotest.(check bool) "script non-empty" true (s1 <> [])

let test_profile_respects_horizon () =
  let s = profile_script ~seed:13 in
  List.iter
    (fun (e : Faults.event) ->
      Alcotest.(check bool) "within horizon" true (e.at > 0.0 && e.at <= 60.0))
    s;
  let times = List.map (fun (e : Faults.event) -> e.at) s in
  Alcotest.(check bool) "sorted by time" true (List.sort Float.compare times = times)

let test_profile_weights () =
  let s =
    Faults.of_profile ~rng:(Rng.create 3) ~mtbf:2.0 ~horizon:60.0 ~hosts:4 ~providers:4 ~weights:(1, 0, 0, 0) ()
  in
  Alcotest.(check bool) "some events" true (List.length s > 5);
  List.iter
    (fun (e : Faults.event) ->
      match e.Faults.action with
      | Faults.Crash_host i -> Alcotest.(check bool) "target in range" true (i >= 0 && i < 4)
      | a -> Alcotest.failf "unexpected action %a with crash-only weights" Faults.pp_action a)
    s

let applied_timeline ~seed =
  let engine = Engine.create ~seed () in
  let script = profile_script ~seed in
  run engine (fun () ->
      let inj = Faults.start engine ~script ~handlers:Faults.null_handlers in
      Engine.sleep engine 100.0;
      Faults.stop inj;
      Faults.applied inj)

let test_injector_replay_deterministic () =
  let t1 = applied_timeline ~seed:7 and t2 = applied_timeline ~seed:7 in
  Alcotest.(check bool) "non-empty" true (t1 <> []);
  Alcotest.(check bool) "identical applied timeline" true (t1 = t2)

let test_injector_stop_drops_pending () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let handlers = { Faults.null_handlers with crash_host = (fun _ -> incr hits) } in
  let applied =
    run engine (fun () ->
        let script =
          [
            { Faults.at = 1.0; action = Faults.Crash_host 0 };
            { Faults.at = 50.0; action = Faults.Crash_host 1 };
          ]
        in
        let inj = Faults.start engine ~script ~handlers in
        Engine.sleep engine 5.0;
        Faults.stop inj;
        Engine.sleep engine 100.0;
        Faults.applied inj)
  in
  Alcotest.(check int) "only the first event fired" 1 !hits;
  Alcotest.(check int) "applied reflects it" 1 (List.length applied)

(* ------------------------------------------------------------------ *)
(* Typed disk faults and bounded retry *)

let test_disk_full_typed () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~capacity:1000 ~name:"d0" () in
  let caught =
    run engine (fun () ->
        Disk.write disk 800;
        try
          Disk.write disk 300;
          None
        with Disk.Full { disk = name; need; capacity } -> Some (name, need, capacity))
  in
  Alcotest.(check (option (triple string int int)))
    "typed overflow" (Some ("d0", 1100, 1000)) caught

let test_transient_disk_retries_absorb () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~capacity:10_000 ~name:"d0" () in
  let value =
    run engine (fun () ->
        Disk.inject_transient disk ~ops:2;
        Faults.with_retries engine ~label:"read" (fun () ->
            Disk.read disk 100;
            "ok"))
  in
  Alcotest.(check string) "succeeded after retries" "ok" value;
  Alcotest.(check int) "faults consumed" 0 (Disk.armed_faults disk)

let test_transient_disk_retries_exhaust () =
  let engine = Engine.create () in
  let disk = Disk.create engine ~capacity:10_000 ~name:"d0" () in
  let raised =
    run engine (fun () ->
        Disk.inject_transient disk ~ops:10;
        try
          Faults.with_retries engine ~retries:2 ~label:"read" (fun () -> Disk.read disk 100);
          false
        with Faults.Injected_error _ -> true)
  in
  Alcotest.(check bool) "typed error escapes after budget" true raised;
  (* 1 initial attempt + 2 retries consumed exactly 3 armed faults. *)
  Alcotest.(check int) "three attempts consumed" 7 (Disk.armed_faults disk)

let quick = Calibration.quick_test
let build () = Cluster.build ~seed:7 quick

let test_ckpt_proxy_retries_transients () =
  let cluster = build () in
  let value, retries =
    Cluster.run cluster (fun () ->
        let inst =
          Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"vm0"
        in
        let fails = ref 2 in
        let value =
          Ckpt_proxy.request inst.Approach.proxy ~vm:inst.Approach.vm ~shipped:Fun.id
            ~suspended:(fun () ->
              if !fails > 0 then begin
                decr fails;
                raise (Faults.Injected_error "synthetic snapshot fault")
              end
              else 42)
        in
        (value, Ckpt_proxy.transient_retries inst.Approach.proxy))
  in
  Alcotest.(check int) "snapshot value" 42 value;
  Alcotest.(check int) "two transient retries" 2 retries

(* ------------------------------------------------------------------ *)
(* Protocol: typed partial failure *)

let deploy_pair cluster =
  [
    Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"a";
    Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 1) ~id:"b";
  ]

let test_protocol_partial_dump_failure () =
  let cluster = build () in
  let partial =
    Cluster.run cluster (fun () ->
        let insts = deploy_pair cluster in
        let dump (inst : Approach.instance) =
          if inst.Approach.id = "b" then raise (Faults.Injected_error "dump blew up")
        in
        match Protocol.global_checkpoint cluster ~instances:insts ~dump with
        | Ok _ -> None
        | Error p -> Some p)
  in
  match partial with
  | None -> Alcotest.fail "expected a partial failure"
  | Some p ->
      Alcotest.(check int) "one branch completed" 1 (List.length p.Protocol.completed);
      Alcotest.(check int) "surviving branch index" 0 (fst (List.hd p.Protocol.completed));
      (match p.Protocol.failed with
      | [ e ] ->
          Alcotest.(check int) "failed index" 1 e.Protocol.index;
          Alcotest.(check string) "failed label" "b" e.Protocol.label;
          Alcotest.(check string) "failed stage" "dump" e.Protocol.stage;
          Alcotest.(check bool) "typed error" true
            (match e.Protocol.error with Faults.Injected_error _ -> true | _ -> false)
      | _ -> Alcotest.fail "expected exactly one failed branch")

let test_protocol_partial_snapshot_stage_on_death () =
  (* A VM fail-stopping between the dump and the disk snapshot used to
     crash the protocol on [Option.get]; now it surfaces as a typed
     snapshot-stage branch error the supervisor can retry. *)
  let cluster = build () in
  let partial =
    Cluster.run cluster (fun () ->
        let insts = deploy_pair cluster in
        let dump (inst : Approach.instance) =
          if inst.Approach.id = "b" then Vm.kill inst.Approach.vm
        in
        match Protocol.global_checkpoint cluster ~instances:insts ~dump with
        | Ok _ -> None
        | Error p -> Some p)
  in
  match partial with
  | None -> Alcotest.fail "expected a partial failure"
  | Some p -> (
      Alcotest.(check int) "one branch completed" 1 (List.length p.Protocol.completed);
      match p.Protocol.failed with
      | [ e ] ->
          Alcotest.(check string) "snapshot stage" "snapshot" e.Protocol.stage;
          Alcotest.(check string) "dead branch" "b" e.Protocol.label
      | _ -> Alcotest.fail "expected exactly one failed branch")

let test_protocol_partial_restart () =
  let cluster = build () in
  let partial =
    Cluster.run cluster (fun () ->
        let insts = deploy_pair cluster in
        let snaps = List.map (Approach.request_checkpoint cluster) insts in
        Protocol.kill_all insts;
        let plan =
          List.map2
            (fun (inst : Approach.instance) snap ->
              let node_index = if inst.Approach.id = "a" then 2 else 3 in
              (Cluster.node cluster node_index, inst.Approach.id ^ ".r", snap))
            insts snaps
        in
        let restore (inst : Approach.instance) =
          if inst.Approach.id = "b.r" then raise (Faults.Injected_error "restore blew up")
        in
        match Protocol.global_restart cluster ~plan ~restore with
        | Ok _ -> None
        | Error p ->
            (* Clean up the instances that did come up. *)
            List.iter (fun (_, inst) -> Approach.kill inst) p.Protocol.completed;
            Some p)
  in
  match partial with
  | None -> Alcotest.fail "expected a partial failure"
  | Some p -> (
      Alcotest.(check int) "one branch completed" 1 (List.length p.Protocol.completed);
      match p.Protocol.failed with
      | [ e ] ->
          Alcotest.(check string) "restore stage" "restore" e.Protocol.stage;
          Alcotest.(check string) "failed label" "b.r" e.Protocol.label
      | _ -> Alcotest.fail "expected exactly one failed branch")

let test_protocol_exn_wrapper () =
  let cluster = build () in
  let raised =
    Cluster.run cluster (fun () ->
        let insts = deploy_pair cluster in
        let dump (inst : Approach.instance) =
          if inst.Approach.id = "a" then raise (Faults.Injected_error "boom")
        in
        try
          ignore (Protocol.global_checkpoint_exn cluster ~instances:insts ~dump);
          false
        with Protocol.Partial_failure msg ->
          let contains msg sub =
            let n = String.length sub in
            let rec scan i =
              i + n <= String.length msg && (String.sub msg i n = sub || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "message names the stage" true (contains msg "dump");
          true)
  in
  Alcotest.(check bool) "typed partial failure" true raised

(* ------------------------------------------------------------------ *)
(* Supervised chaos: CM1 recovers from a crash + provider loss, and the
   recovered final state is byte-identical to a failure-free run. *)

let chaos_config =
  {
    Cm1.default_config with
    procs_per_vm = 2;
    subdomain_state_bytes = Size.mib_n 1;
    compute_per_iteration = 2.0;
    summary_every = 2;
  }

let chaos_script =
  [
    { Faults.at = 18.0; action = Faults.Crash_host 0 };
    { Faults.at = 19.2; action = Faults.Fail_provider 2 };
  ]

let supervised_cluster () =
  Cluster.build
    {
      quick with
      Calibration.blobseer = { quick.Calibration.blobseer with Blobseer.Types.replication = 2 };
    }

(* [after_dump n] runs after the gang's [n]-th instance dump, counted
   from 1 over the whole run. *)
let supervise cluster ?faults ?(after_dump = ignore) () =
  let workload = Cm1.supervised_workload cluster chaos_config ~iters_per_unit:1 in
  let dumps = ref 0 in
  let dump inst =
    workload.Supervisor.dump inst;
    incr dumps;
    after_dump !dumps
  in
  Supervisor.run cluster ~kind:Approach.Blobcr
    ~policy:{ Supervisor.default_policy with checkpoint_interval = 4 }
    ?faults ~id:"cm1" ~gang:2 ~units:12 ~workload:{ workload with Supervisor.dump } ()

let run_supervised ?faults () =
  let cluster = supervised_cluster () in
  Cluster.run cluster (fun () ->
      let sup = supervise cluster ?faults () in
      ( Supervisor.report sup,
        Experiments.Durability.final_subdomain_digests sup,
        Supervisor.audit sup ))

let test_chaos_recovery_end_to_end () =
  let report, digests, audit = run_supervised ~faults:chaos_script () in
  Alcotest.(check bool) "finished" true report.Supervisor.finished;
  Alcotest.(check int) "all units" 12 report.Supervisor.units_completed;
  Alcotest.(check int) "one recovery" 1 report.Supervisor.recoveries;
  Alcotest.(check bool) "non-zero wasted work" true (report.Supervisor.wasted_time > 0.0);
  Alcotest.(check int) "one latency sample" 1 (List.length report.Supervisor.recovery_latencies);
  Alcotest.(check (list string)) "supervisor invariants clean" [] audit;
  Alcotest.(check int) "all subdomains dumped" 4 (List.length digests);
  (* The recovered run's final application state matches a failure-free
     run byte for byte: rollback re-executed exactly the lost units. *)
  let clean_report, clean_digests, clean_audit = run_supervised () in
  Alcotest.(check bool) "clean run finished" true clean_report.Supervisor.finished;
  Alcotest.(check int) "clean run recoveries" 0 clean_report.Supervisor.recoveries;
  Alcotest.(check (list string)) "clean supervisor invariants" [] clean_audit;
  Alcotest.(check bool) "final state byte-identical to failure-free run" true
    (List.map snd digests = List.map snd clean_digests)

let test_chaos_recovery_replay_deterministic () =
  let capture () =
    let (report, digests, _), trace = Trace.capture (fun () -> run_supervised ~faults:chaos_script ()) in
    ( (report.Supervisor.units_completed, report.Supervisor.recoveries,
       report.Supervisor.checkpoints, report.Supervisor.wasted_time),
      digests, trace )
  in
  let summary1, digests1, trace1 = capture () in
  let summary2, digests2, trace2 = capture () in
  Alcotest.(check bool) "same summary" true (summary1 = summary2);
  Alcotest.(check bool) "same final state" true (digests1 = digests2);
  Alcotest.(check bool) "same trace" true (trace1 = trace2)

(* The supervisor owns its injector: [injected] lists the applied script in
   order, an event due after supervision ends is dropped without holding
   the run open, and a run without [~faults] injects nothing. *)
let test_supervisor_owns_injector () =
  let late = { Faults.at = 300.0; action = Faults.Crash_host 1 } in
  let cluster = supervised_cluster () in
  let sup, ended =
    Cluster.run cluster (fun () ->
        let sup = supervise cluster ~faults:(chaos_script @ [ late ]) () in
        (sup, Cluster.now cluster))
  in
  Alcotest.(check bool) "run ends before the late event is due" true (ended < late.Faults.at);
  Alcotest.(check (float 0.0)) "clock stops where supervision ended" ended (Cluster.now cluster);
  (* Drive the engine past the late event's due time: a stopped injector
     never applies it. *)
  Engine.run_until cluster.Cluster.engine (late.Faults.at +. ended);
  let injected = (Supervisor.report sup).Supervisor.injected in
  let action (e : Faults.event) = Fmt.str "%a" Faults.pp_action e.Faults.action in
  Alcotest.(check (list string)) "applied script, in order"
    (List.map action chaos_script) (List.map action injected);
  (* [at] is absolute: offsets between applied events are the script's. *)
  let offsets (es : Faults.event list) =
    let t0 = (List.hd es).Faults.at in
    List.map (fun (e : Faults.event) -> e.Faults.at -. t0) es
  in
  Alcotest.(check (list (float 1e-9))) "applied at the scripted offsets" (offsets chaos_script)
    (offsets injected);
  Alcotest.(check bool) "applied at absolute times" true
    ((List.hd injected).Faults.at > (List.hd chaos_script).Faults.at);
  let report, _, _ = run_supervised () in
  Alcotest.(check int) "no faults, nothing injected" 0 (List.length report.Supervisor.injected)

(* A degraded checkpoint names its cause. Every data provider fails once
   both instances of the second checkpoint have dumped (dumps 1 and 2 are
   the initial checkpoint's), so the snapshot stage and the per-instance
   retry both raise, and the degrade reason carries the retry's
   exception. *)
let test_degraded_checkpoint_names_cause () =
  let cluster = supervised_cluster () in
  let fail_providers n =
    if n = 4 then
      for i = 0 to Cluster.node_count cluster - 1 do
        Blobseer.Data_provider.fail (Blobseer.Client.data_provider cluster.Cluster.service i)
      done
  in
  let report =
    Cluster.run cluster (fun () ->
        Supervisor.report (supervise cluster ~after_dump:fail_providers ()))
  in
  let reasons =
    List.filter_map
      (function Supervisor.Checkpoint_degraded { reason; _ } -> Some reason | _ -> None)
      report.Supervisor.events
  in
  Alcotest.(check (option string)) "first degrade reason"
    (Some "snapshot retry failed: Blobseer.Types.Provider_down(\"no live provider\")")
    (List.nth_opt reasons 0)

(* A transient local-disk error while a snapshot ships a batch-claimed
   chunk must release the claim. Three errors armed on node 0's disk right
   after the third dump all fire in the first snapshot attempt; the proxy
   retries, and the retry resolves the same digests, so a leaked claim
   would block it forever. The run is bounded in simulated time (the
   fault-free run ends near 29 s), so a leak fails the test instead of
   hanging it. *)
let test_snapshot_retry_after_disk_errors () =
  let cluster = supervised_cluster () in
  let arm n = if n = 3 then Disk.inject_transient (Cluster.node cluster 0).Cluster.disk ~ops:3 in
  let report = ref None in
  let _ =
    Engine.Fiber.spawn cluster.Cluster.engine (fun () ->
        report := Some (Supervisor.report (supervise cluster ~after_dump:arm ())))
  in
  while !report = None && Cluster.now cluster < 120.0 && Engine.step cluster.Cluster.engine do
    ()
  done;
  match !report with
  | None -> Alcotest.failf "no result after %.0f s of simulated time" (Cluster.now cluster)
  | Some report ->
      Alcotest.(check bool) "finished" true report.Supervisor.finished;
      Alcotest.(check int) "all units" 12 report.Supervisor.units_completed

(* ------------------------------------------------------------------ *)
(* Durability acceptance: a crash injected mid-COMMIT plus one silently
   corrupted replica; the supervised restart must restore byte-identical
   application state via journal recovery, checksum failover and scrub
   repair — deterministically under a fixed seed. *)

let durability_scale = { Experiments.Scale.quick with Experiments.Scale.seed = 42 }

let test_durability_chaos_acceptance () =
  let chaos = Experiments.Durability.chaos_run durability_scale () in
  let report = chaos.Experiments.Durability.report in
  Alcotest.(check bool) "finished" true report.Supervisor.finished;
  Alcotest.(check bool) "recovered at least once" true (report.Supervisor.recoveries >= 1);
  let journal_intents =
    List.fold_left
      (fun acc -> function
        | Supervisor.Journal_recovered { intents; _ } -> acc + intents
        | _ -> acc)
      0 report.Supervisor.events
  in
  Alcotest.(check bool) "journal recovery rolled back a pending intent" true
    (journal_intents >= 1);
  Alcotest.(check bool) "scrubber repaired corrupted or lost replicas" true
    ((Blobseer.Scrubber.stats chaos.Experiments.Durability.scrubber).Blobseer.Scrubber.repairs > 0);
  Alcotest.(check (list string)) "supervisor invariants clean" []
    chaos.Experiments.Durability.audit;
  (* Byte-identical to a fault-free run of the same workload: recovery
     re-executed exactly the lost units on exactly the rolled-back state. *)
  let clean = Experiments.Durability.chaos_run durability_scale ~script:(fun _ -> []) () in
  Alcotest.(check bool) "clean run finished" true
    clean.Experiments.Durability.report.Supervisor.finished;
  Alcotest.(check bool) "final state byte-identical to fault-free run" true
    (List.map snd chaos.Experiments.Durability.digests
    = List.map snd clean.Experiments.Durability.digests)

let test_durability_chaos_replay_deterministic () =
  let capture () =
    let chaos, trace =
      Trace.capture (fun () -> Experiments.Durability.chaos_run durability_scale ())
    in
    ( Experiments.Durability.render_scrub_log chaos,
      List.map snd chaos.Experiments.Durability.digests,
      trace )
  in
  let log1, digests1, trace1 = capture () in
  let log2, digests2, trace2 = capture () in
  Alcotest.(check string) "same scrub/repair log" log1 log2;
  Alcotest.(check bool) "same final state" true (digests1 = digests2);
  Alcotest.(check bool) "same trace" true (trace1 = trace2)

(* A chaos fuzz sample whose supervisor gives up while the background
   scrubber is mid-repair. Stopping the scrubber must wait for that pass
   to unwind, so its metadata commit aborts its journal intent before the
   run tears down. The fifo replay must report no invariant finding. *)
let test_chaos_abandoned_scrub_leaves_journal_quiescent () =
  let open Analysis.Schedule_fuzz in
  let _, findings = replay ~seed:1692496000 chaos in
  Alcotest.(check (list string)) "no invariant findings" []
    (List.filter_map
       (fun f -> if f.kind = Invariant then Some (Fmt.str "%a" pp_finding f) else None)
       findings)

(* The same fifo sample: scrub pass 10 is cancelled mid-loop after it has
   found unrepairable chunks, and never reaches [Scan_finished]. The
   cumulative stat must count finished passes only. *)
let test_chaos_cancelled_scrub_pass_not_counted () =
  let sample = Analysis.Schedule_fuzz.sample_of_seed 1692496000 in
  let scale = { Experiments.Scale.quick with Experiments.Scale.schedule = sample.schedule } in
  let c =
    Experiments.Durability.chaos_run scale
      ~script:(Analysis.Schedule_fuzz.chaos_script scale ~fault_seed:sample.fault_seed)
      ~gang:scale.Experiments.Scale.durability_gang
      ~units:scale.Experiments.Scale.durability_units ()
  in
  let finished =
    List.fold_left
      (fun acc -> function
        | Blobseer.Scrubber.Scan_finished { unrepairable; _ } -> acc + unrepairable
        | _ -> acc)
      0
      (Blobseer.Scrubber.events c.Experiments.Durability.scrubber)
  in
  Alcotest.(check int) "unrepairable = sum over finished passes" finished
    (Blobseer.Scrubber.stats c.Experiments.Durability.scrubber).Blobseer.Scrubber.unrepairable

(* A supervised run has a scrubber but no compactor. [Crash_service 0]
   restarts the scrubber; the compactor actions ([Crash_service 1] and
   [2], [Crash_compaction]) find nothing to hit, so adding them to the
   script changes neither the report nor the restored state. *)
let test_service_crashes_in_supervised_run () =
  let at t action = { Faults.at = t; action } in
  let run script =
    Experiments.Durability.chaos_run durability_scale ~script:(fun _ -> script) ()
  in
  let scrubber_only = run [ at 5.0 (Faults.Crash_service 0) ] in
  let all_four =
    run
      [
        at 5.0 (Faults.Crash_service 0);
        at 6.0 (Faults.Crash_service 1);
        at 7.0 (Faults.Crash_service 2);
        at 8.0 (Faults.Crash_compaction { point = 1 });
      ]
  in
  let report (c : Experiments.Durability.chaos) =
    { c.Experiments.Durability.report with Supervisor.injected = [] }
  in
  Alcotest.(check int) "all four applied" 4
    (List.length all_four.Experiments.Durability.report.Supervisor.injected);
  let restarted_at =
    match all_four.Experiments.Durability.report.Supervisor.injected with
    | e :: _ -> e.Faults.at
    | [] -> Alcotest.fail "no fault applied"
  in
  (* The restarted fiber sleeps one full interval (4 s in [chaos_run])
     before its first pass. *)
  let next_pass =
    List.find_map
      (function
        | Blobseer.Scrubber.Scan_started { at; _ } when at > restarted_at -> Some at
        | _ -> None)
      (Blobseer.Scrubber.events all_four.Experiments.Durability.scrubber)
  in
  Alcotest.(check (option (float 1e-9))) "scrub passes resume one interval after the restart"
    (Some (restarted_at +. 4.0)) next_pass;
  Alcotest.(check bool) "report unchanged by the compactor actions" true
    (report all_four = report scrubber_only);
  Alcotest.(check bool) "restored state unchanged" true
    (all_four.Experiments.Durability.digests = scrubber_only.Experiments.Durability.digests);
  Alcotest.(check bool) "run finished" true
    all_four.Experiments.Durability.report.Supervisor.finished;
  Alcotest.(check (list string)) "teardown audits clean" []
    (List.map
       (Fmt.str "%a" Engine.pp_violation)
       (Engine.audit all_four.Experiments.Durability.engine))

(* ------------------------------------------------------------------ *)
(* Availability sweep smoke *)

let test_availability_smoke () =
  let scale =
    {
      (Option.get (Experiments.Scale.find "quick")) with
      Experiments.Scale.availability_mtbfs = [ 12.0 ];
      availability_intervals = [ 2 ];
    }
  in
  let points = Experiments.Availability.sweep scale ~progress:ignore in
  Alcotest.(check int) "one cell per kind" 2 (List.length points);
  List.iter
    (fun (p : Experiments.Availability.point) ->
      Alcotest.(check bool) "utilization in (0, 1]" true
        (p.Experiments.Availability.utilization > 0.0 && p.utilization <= 1.0);
      Alcotest.(check bool) "faults caused recoveries" true (p.recoveries > 0);
      Alcotest.(check bool) "wasted work recorded" true (p.wasted > 0.0))
    points

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "profile deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "profile respects horizon" `Quick test_profile_respects_horizon;
          Alcotest.test_case "profile weights" `Quick test_profile_weights;
          Alcotest.test_case "replay deterministic" `Quick test_injector_replay_deterministic;
          Alcotest.test_case "stop drops pending" `Quick test_injector_stop_drops_pending;
        ] );
      ( "transients",
        [
          Alcotest.test_case "disk full is typed" `Quick test_disk_full_typed;
          Alcotest.test_case "retries absorb transients" `Quick
            test_transient_disk_retries_absorb;
          Alcotest.test_case "retries exhaust to typed error" `Quick
            test_transient_disk_retries_exhaust;
          Alcotest.test_case "ckpt proxy retries transients" `Quick
            test_ckpt_proxy_retries_transients;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "partial dump failure" `Quick test_protocol_partial_dump_failure;
          Alcotest.test_case "snapshot stage on mid-barrier death" `Quick
            test_protocol_partial_snapshot_stage_on_death;
          Alcotest.test_case "partial restart" `Quick test_protocol_partial_restart;
          Alcotest.test_case "exn wrapper" `Quick test_protocol_exn_wrapper;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "chaos recovery end to end" `Quick test_chaos_recovery_end_to_end;
          Alcotest.test_case "supervisor owns its injector" `Quick test_supervisor_owns_injector;
          Alcotest.test_case "degraded checkpoint names its cause" `Quick
            test_degraded_checkpoint_names_cause;
          Alcotest.test_case "snapshot retry after disk errors" `Quick
            test_snapshot_retry_after_disk_errors;
          Alcotest.test_case "durability chaos acceptance" `Quick
            test_durability_chaos_acceptance;
          Alcotest.test_case "durability replay deterministic" `Quick
            test_durability_chaos_replay_deterministic;
          Alcotest.test_case "chaos replay deterministic" `Quick
            test_chaos_recovery_replay_deterministic;
          Alcotest.test_case "abandoned scrub leaves journal quiescent" `Quick
            test_chaos_abandoned_scrub_leaves_journal_quiescent;
          Alcotest.test_case "cancelled scrub pass not counted" `Quick
            test_chaos_cancelled_scrub_pass_not_counted;
          Alcotest.test_case "service crashes in a supervised run" `Quick
            test_service_crashes_in_supervised_run;
        ] );
      ( "availability",
        [ Alcotest.test_case "sweep smoke" `Quick test_availability_smoke ] );
    ]
