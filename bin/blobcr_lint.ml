(* blobcr_lint: static analysis and state auditing for the reproduction.

     blobcr_lint lint [--root DIR] [DIR...]     source lint (determinism hazards)
     blobcr_lint docs [--root DIR]              doc coverage, markdown links, CHANGES log
     blobcr_lint invariants                     structural audits over a live scenario
     blobcr_lint durability                     corruption-chaos durability invariant
     blobcr_lint fuzz [--seed N]                schedule-fuzzing race detector / seed replay
     blobcr_lint all                            everything; exit 0 = clean *)

open Cmdliner
open Analysis

let default_dirs = [ "lib"; "bin"; "bench"; "examples" ]

(* ------------------------------------------------------------------ *)
(* lint *)

let run_lint root dirs =
  let dirs = if dirs = [] then default_dirs else dirs in
  let dirs = List.filter (fun d -> Sys.file_exists (Filename.concat root d)) dirs in
  let findings = Lint.scan_tree ~root dirs in
  List.iter (fun f -> Fmt.pr "%a@." Lint.pp_finding f) findings;
  match findings with
  | [] ->
      Fmt.pr "lint: clean (%s)@." (String.concat " " dirs);
      0
  | fs ->
      Fmt.pr "lint: %d finding(s)@." (List.length fs);
      1

let root_term =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Directory the scanned paths are relative to.")

let dirs_term =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin bench examples).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint" ~doc:"Scan the source tree for determinism and correctness hazards.")
    Term.(const run_lint $ root_term $ dirs_term)

(* ------------------------------------------------------------------ *)
(* docs *)

let run_docs root =
  let findings = Doc_lint.scan_repo ~root in
  List.iter (fun f -> Fmt.pr "%a@." Lint.pp_finding f) findings;
  match findings with
  | [] ->
      Fmt.pr "docs: clean@.";
      0
  | fs ->
      Fmt.pr "docs: %d finding(s)@." (List.length fs);
      1

let docs_cmd =
  Cmd.v
    (Cmd.info "docs"
       ~doc:
         "Check documentation health: doc comments on every public val, resolvable \
          markdown links, and a well-formed CHANGES.md log.")
    Term.(const run_docs $ root_term)

(* ------------------------------------------------------------------ *)
(* invariants: run a scenario that exercises every audited structure, then
   audit the quiesced state. *)

let run_invariants () =
  let scale = Experiments.Scale.quick in
  let cluster = Blobcr.Cluster.build ~seed:scale.Experiments.Scale.seed scale.Experiments.Scale.cal in
  let engine = cluster.Blobcr.Cluster.engine in
  Blobcr.Cluster.run cluster (fun () ->
      (* BlobCR path: mirror over the base blob, dirty chunks, checkpoint
         twice — exercises mirror COW state, the version manager and its
         segment trees. *)
      let node = Blobcr.Cluster.node cluster 0 in
      let inst = Blobcr.Approach.deploy cluster Blobcr.Approach.Blobcr ~node ~id:"audit-vm" in
      let bench = Workloads.Synthetic.start inst ~buffer_bytes:(Simcore.Size.mib_n 1) in
      Workloads.Synthetic.dump_app bench;
      ignore (Blobcr.Approach.request_checkpoint cluster inst);
      Workloads.Synthetic.refill bench;
      Workloads.Synthetic.dump_app bench;
      ignore (Blobcr.Approach.request_checkpoint cluster inst);
      (* Partial-chunk COW write + commit: the mirror's dirty-region digest
         cache must invalidate the overwritten chunk, which the teardown
         audit cross-checks by recomputing sampled digests from bytes. *)
      (match inst.Blobcr.Approach.stack with
      | Blobcr.Approach.Mirror_stack mirror ->
          let csize = Vdisk.Mirror.chunk_size mirror in
          Vdisk.Mirror.write mirror ~offset:(csize / 2)
            (Simcore.Payload.pattern ~seed:0xC0FFEEL (csize / 4));
          ignore (Vdisk.Mirror.commit mirror)
      | Blobcr.Approach.Qcow2_stack _ -> ());
      (* qcow2 baseline path: COW writes around an internal snapshot —
         exercises the refcount machinery. *)
      let qnode = Blobcr.Cluster.node cluster 1 in
      let qinst = Blobcr.Approach.deploy cluster Blobcr.Approach.Qcow2_full ~node:qnode ~id:"audit-qcow2" in
      let qbench = Workloads.Synthetic.start qinst ~buffer_bytes:(Simcore.Size.mib_n 1) in
      Workloads.Synthetic.dump_app qbench;
      ignore (Blobcr.Approach.request_checkpoint cluster qinst);
      Workloads.Synthetic.refill qbench;
      Workloads.Synthetic.dump_app qbench);
  (* Supervised chaos path on its own cluster: a scripted node crash
     forces detection, rollback and re-deploy — exercises the
     supervisor's dead-instance accounting audit. *)
  let chaos_cluster =
    Blobcr.Cluster.build ~seed:scale.Experiments.Scale.seed
      {
        scale.Experiments.Scale.cal with
        Blobcr.Calibration.blobseer =
          {
            scale.Experiments.Scale.cal.Blobcr.Calibration.blobseer with
            Blobseer.Types.replication = 2;
          };
      }
  in
  Blobcr.Cluster.run chaos_cluster (fun () ->
      let workload =
        Workloads.Cm1.supervised_workload chaos_cluster scale.Experiments.Scale.cm1_config
          ~iters_per_unit:1
      in
      let report =
        Blobcr.Supervisor.report
          (Blobcr.Supervisor.run chaos_cluster ~kind:Blobcr.Approach.Blobcr
             ~policy:{ Blobcr.Supervisor.default_policy with checkpoint_interval = 2 }
             ~faults:[ { Faults.at = 6.0; action = Faults.Crash_host 0 } ]
             ~id:"audit-sup" ~gang:2 ~units:6 ~workload ())
      in
      if not (report.Blobcr.Supervisor.finished && report.Blobcr.Supervisor.recoveries > 0)
      then
        Fmt.epr "warning: chaos scenario finished=%b recoveries=%d@."
          report.Blobcr.Supervisor.finished report.Blobcr.Supervisor.recoveries);
  let chaos_engine = chaos_cluster.Blobcr.Cluster.engine in
  let violations = Simcore.Engine.audit engine @ Simcore.Engine.audit chaos_engine in
  List.iter (fun x -> Fmt.pr "%a@." Simcore.Engine.pp_violation x) violations;
  match violations with
  | [] ->
      Fmt.pr "invariants: clean (%d subjects audited)@."
        (Simcore.Engine.audit_count engine + Simcore.Engine.audit_count chaos_engine);
      0
  | vs ->
      Fmt.pr "invariants: %d violation(s)@." (List.length vs);
      1

let invariants_cmd =
  Cmd.v
    (Cmd.info "invariants"
       ~doc:
         "Run a representative scenario and audit qcow2/BlobSeer/mirror state, \
          including the sampled digest-cache coherence check (cached chunk digests \
          must match digests recomputed from current bytes).")
    Term.(const run_invariants $ const ())

(* ------------------------------------------------------------------ *)
(* Shared options and the replay report *)

let scale_arg =
  let parse s =
    match Experiments.Scale.find s with
    | Some scale -> Ok scale
    | None -> Error (`Msg (Fmt.str "unknown scale %S (expected: paper, quick)" s))
  in
  let print ppf scale = Fmt.string ppf scale.Experiments.Scale.name in
  Arg.conv (parse, print)

let scale_term =
  Arg.(
    value
    & opt scale_arg Experiments.Scale.quick
    & info [ "s"; "scale" ] ~docv:"SCALE" ~doc:"Experiment scale: $(b,quick) or $(b,paper).")

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Engine seed for both runs.")

(* Replay one sample (see Schedule_fuzz.replay) and print the verdict;
   exit code 0 when both reruns match and the invariants hold. *)
let run_replay ?(show_results = true) scale (scenario : Schedule_fuzz.scenario) seed =
  Fmt.pr "replaying %s %a@." scenario.sname Schedule_fuzz.pp_sample
    (Schedule_fuzz.sample_of_seed seed);
  let outcome, findings = Schedule_fuzz.replay ~scale ~seed scenario in
  Fmt.pr "trace: %d lines@." (List.length outcome.Schedule_fuzz.trace);
  if show_results then Fmt.pr "results:@.%s@." outcome.Schedule_fuzz.results;
  if findings = [] then begin
    Fmt.pr "fuzz replay: clean (trace and results byte-identical across reruns)@.";
    0
  end
  else begin
    List.iter (fun f -> Fmt.pr "@[<v>%a@]@." Schedule_fuzz.pp_finding f) findings;
    Fmt.pr "fuzz replay: %d finding(s)@." (List.length findings);
    1
  end

(* ------------------------------------------------------------------ *)
(* durability: corruption chaos must end in a byte-identical restart or a
   typed, classified error — never an untyped [Failure _]/[Not_found]
   escape — and the scrub/repair log must replay identically. *)

let run_durability scale seed =
  let scale = { scale with Experiments.Scale.seed } in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  (* Chaos run: silent corruption + crash mid-COMMIT + host crash. Either
     the run completes — in which case its final application state must be
     byte-identical to a fault-free run — or it surfaces a typed error. *)
  let run label script =
    match Experiments.Durability.chaos_run scale ?script () with
    | chaos ->
        if chaos.Experiments.Durability.audit <> [] then
          fail "%s: supervisor accounting violated: %s" label
            (String.concat "; " chaos.Experiments.Durability.audit);
        Some chaos
    | exception e ->
        (match Blobcr.Protocol.error_class e with
        | `Transient | `Unavailable | `Service_crash | `Cancelled ->
            Fmt.pr "%s: failed with typed error %a (acceptable)@." label
              Blobcr.Protocol.pp_error_class (Blobcr.Protocol.error_class e)
        | `Fatal -> fail "%s: untyped escape: %s" label (Printexc.to_string e));
        None
  in
  (match (run "chaos" None, run "fault-free" (Some (fun _ -> []))) with
  | Some chaos, Some clean ->
      if not chaos.Experiments.Durability.report.Blobcr.Supervisor.finished then
        fail "chaos run neither finished nor raised a typed error";
      if
        chaos.Experiments.Durability.report.Blobcr.Supervisor.finished
        && List.map snd chaos.Experiments.Durability.digests
           <> List.map snd clean.Experiments.Durability.digests
      then fail "restart state diverged from the fault-free run (not byte-identical)";
      Fmt.pr
        "chaos: finished=%b recoveries=%d repairs=%d failovers=%d — state matches \
         fault-free run@."
        chaos.Experiments.Durability.report.Blobcr.Supervisor.finished
        chaos.Experiments.Durability.report.Blobcr.Supervisor.recoveries
        (Blobseer.Scrubber.stats chaos.Experiments.Durability.scrubber).Blobseer.Scrubber.repairs
        chaos.Experiments.Durability.integrity_failures
  | _ -> ());
  (* Replay determinism of the scrub/repair log, at engine seed [seed]
     under fifo (slot 0). *)
  if
    run_replay ~show_results:false scale Schedule_fuzz.scrub
      (Schedule_fuzz.seed_of ~slot:0 ~fault_seed:seed)
    <> 0
  then fail "scrub/repair log is not replay-identical";
  match List.rev !failures with
  | [] ->
      Fmt.pr "durability: clean@.";
      0
  | fs ->
      List.iter (Fmt.pr "durability: %s@.") fs;
      Fmt.pr "durability: %d failure(s)@." (List.length fs);
      1

let durability_cmd =
  Cmd.v
    (Cmd.info "durability"
       ~doc:
         "Corruption chaos: every supervised restart must restore byte-identical state or \
          fail with a typed error, and the scrub/repair log must replay identically.")
    Term.(const run_durability $ scale_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* fuzz: the schedule-fuzzing race detector. Default mode samples a
   (fault stream x schedule) grid; --seed replays one reported sample
   byte-for-byte. *)

let rounds_term =
  Arg.(
    value & opt int 25
    & info [ "rounds" ] ~docv:"N"
        ~doc:
          "Total (schedule x fault) samples to aim for; the grid uses 5 schedules \
           per fault stream, so N is rounded up to a multiple of 5.")

let replay_seed_term =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Replay one sample instead of sampling a grid: runs the exact (schedule, \
           fault stream) pair twice, requires byte-identical traces and results, and \
           re-checks invariants and FIFO result parity. $(docv) is the fault stream \
           times 1000 plus the schedule slot (0 = fifo), so $(b,--scenario exp:fig5a \
           --seed 42000) runs fig5a twice at engine seed 42 under fifo.")

let default_master_seed = 42

let master_seed_term =
  Arg.(
    value & opt int default_master_seed
    & info [ "master-seed" ] ~docv:"N" ~doc:"Seed the sampling grid is derived from.")

let scenario_term =
  Arg.(
    value & opt string "chaos"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "$(b,chaos) (the durability chaos harness under MTBF fault scripts), \
           $(b,precopy) (the chaos harness with the live pre-copy + \
           background-commit checkpoint policy and crashes armed mid-COMMIT), \
           $(b,dr) (a site disaster with standby promotion at a fuzzed crash time \
           and window), $(b,chains) (the snapshot-chain compactor under compaction \
           crash points, service crashes and transient disk errors, checked against \
           the settled retention fixed point), $(b,scrub) (the durability stage's \
           scrub-log replay, with the fault seed as engine seed; its log carries event \
           times, so only fifo replays are expected clean), or $(b,exp:<id>) \
           for any registry experiment (likewise).")

let verbose_term =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every sample as it runs.")

(* Failing seeds are preserved as a per-scenario artifact file so CI can
   upload them: the report embeds each finding's replay command, letting a
   red fuzz stage be reproduced byte-for-byte without rerunning the grid.
   A clean grid removes any stale artifact from a previous run. A grid from
   another master seed keeps its own file, so two grids of one scenario in
   one battery do not remove each other's findings. *)
let fuzz_artifact_path scenario_name master_seed =
  let safe = String.map (fun c -> if c = ':' then '-' else c) scenario_name in
  if master_seed = default_master_seed then Fmt.str "FUZZ_FAILURES.%s.txt" safe
  else Fmt.str "FUZZ_FAILURES.%s.seed%d.txt" safe master_seed

let write_fuzz_artifact scenario_name master_seed report =
  let path = fuzz_artifact_path scenario_name master_seed in
  if Schedule_fuzz.clean report then begin
    if Sys.file_exists path then Sys.remove path
  end
  else begin
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    Fmt.pf ppf "@[<v>%a@]@." Schedule_fuzz.pp_report report;
    Format.pp_print_flush ppf ();
    close_out oc;
    Fmt.pr "failing seeds written to %s@." path
  end

let run_fuzz scale scenario_name rounds master_seed replay_seed verbose =
  match Schedule_fuzz.find_scenario scenario_name with
  | None ->
      Fmt.epr "unknown scenario %S (expected %s or exp:<id>)@." scenario_name
        (String.concat ", "
           (List.map (fun (s : Schedule_fuzz.scenario) -> s.sname) Schedule_fuzz.named));
      2
  | Some scenario -> (
      match replay_seed with
      | Some seed -> run_replay scale scenario seed
      | None ->
          let schedules = 5 in
          let fault_streams = max 1 ((rounds + schedules - 1) / schedules) in
          let progress = if verbose then fun s -> Fmt.pr "%s@." s else fun _ -> () in
          let report =
            Schedule_fuzz.run ~scale ~fault_streams ~schedules ~master_seed ~progress
              scenario
          in
          Fmt.pr "@[<v>%a@]@." Schedule_fuzz.pp_report report;
          write_fuzz_artifact scenario_name master_seed report;
          if Schedule_fuzz.clean report then 0 else 1)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Schedule-fuzzing race detector: sample event-queue tie-break policies x \
          fault scripts, check invariants and schedule-independence of results, and \
          report replayable failing seeds.")
    Term.(
      const run_fuzz $ scale_term $ scenario_term $ rounds_term $ master_seed_term
      $ replay_seed_term $ verbose_term)

(* ------------------------------------------------------------------ *)
(* all *)

let run_all root seed =
  let stage name code =
    Fmt.pr "--- %s ---@." name;
    code ()
  in
  let lint = stage "lint" (fun () -> run_lint root []) in
  let docs = stage "docs" (fun () -> run_docs root) in
  let inv = stage "invariants" (fun () -> run_invariants ()) in
  (* Each experiment replayed at engine seed [seed] under fifo: the
     sample seed [seed * 1000] of its fuzz scenario. *)
  let det =
    stage "determinism" (fun () ->
        let sample = Schedule_fuzz.seed_of ~slot:0 ~fault_seed:seed in
        let codes =
          List.map
            (fun id ->
              run_replay ~show_results:false Experiments.Scale.quick
                (Option.get (Schedule_fuzz.find_scenario ("exp:" ^ id)))
                sample)
            [ "fig5a"; "dedup"; "dr" ]
        in
        if List.for_all (( = ) 0) codes then 0 else 1)
  in
  let dur = stage "durability" (fun () -> run_durability Experiments.Scale.quick seed) in
  let fuzz =
    List.map
      (fun ((s : Schedule_fuzz.scenario), rounds) ->
        let name = if s.sname = "chaos" then "fuzz" else "fuzz-" ^ s.sname in
        stage name (fun () -> run_fuzz Experiments.Scale.quick s.sname rounds seed None false))
      Schedule_fuzz.scenarios
  in
  (* The chaos grid again from a second master seed, so a second set of
     fault streams runs under the same schedules. *)
  let fuzz7 =
    stage "fuzz-seed7" (fun () -> run_fuzz Experiments.Scale.quick "chaos" 25 7 None false)
  in
  if
    lint = 0 && docs = 0 && inv = 0 && det = 0 && dur = 0
    && List.for_all (( = ) 0) (fuzz7 :: fuzz)
  then begin
    Fmt.pr "--- all clean ---@.";
    0
  end
  else 1

let all_cmd =
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run lint, docs, invariants, determinism (fifo replays of fig5a, dedup and \
          the DR sweep at $(b,--seed)), durability and the bounded schedule-fuzz \
          smoke passes (chaos, site-disaster, snapshot-chain and live-checkpoint \
          scenarios, plus the chaos grid from master seed 7); exit 0 when all clean.")
    Term.(const run_all $ root_term $ seed_term)

let () =
  let doc = "BlobCR determinism lint, invariant audit and replay checking" in
  let info = Cmd.info "blobcr_lint" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ lint_cmd; docs_cmd; invariants_cmd; durability_cmd; fuzz_cmd; all_cmd ]))
