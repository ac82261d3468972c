open Simcore

(* ------------------------------------------------------------------ *)
(* Samples: one integer seed encodes the whole (schedule, fault script)
   pair, so a finding is replayable from a single number. *)

let slot_radix = 1000

type sample = {
  seed : int;
  slot : int;
  fault_seed : int;
  schedule : Event_queue.schedule;
}

let schedule_of_slot = function
  | 0 -> Event_queue.Fifo
  | 1 -> Event_queue.Lifo
  | slot -> Event_queue.Seeded_shuffle slot

let seed_of ~slot ~fault_seed =
  if slot < 0 || slot >= slot_radix then invalid_arg "Schedule_fuzz.seed_of: slot";
  if fault_seed < 0 then invalid_arg "Schedule_fuzz.seed_of: fault_seed";
  (fault_seed * slot_radix) + slot

let sample_of_seed seed =
  if seed < 0 then invalid_arg "Schedule_fuzz.sample_of_seed: negative seed";
  let slot = seed mod slot_radix and fault_seed = seed / slot_radix in
  { seed; slot; fault_seed; schedule = schedule_of_slot slot }

let pp_sample ppf s =
  Fmt.pf ppf "seed=%d (schedule %a, fault stream %d)" s.seed Event_queue.pp_schedule
    s.schedule s.fault_seed

(* ------------------------------------------------------------------ *)
(* Scenarios *)

type outcome = {
  results : string;
  trace : string list;
  violations : string list;
}

type scenario = {
  sname : string;
  srun : Experiments.Scale.t -> schedule:Event_queue.schedule -> fault_seed:int -> outcome;
}

(* The chaos scenario: the durability harness (supervised CM1 gang,
   background scrubber, journaled commits) under an MTBF-profile fault
   script drawn from the fault seed. Half the fault streams additionally
   arm a mid-COMMIT version-manager crash, so journal recovery races the
   scrubber and the supervisor's rollback — the orderings PR 3 grew. *)
let chaos_script (scale : Experiments.Scale.t) ~fault_seed cluster =
  let rng = Rng.create fault_seed in
  let horizon =
    (float_of_int scale.Experiments.Scale.durability_units
    *. scale.Experiments.Scale.cm1_config.Workloads.Cm1.compute_per_iteration *. 3.0)
    +. 60.0
  in
  let nodes = Blobcr.Cluster.node_count cluster in
  let profile =
    Faults.of_profile ~rng ~mtbf:scale.Experiments.Scale.durability_mtbf ~horizon
      ~hosts:nodes ~providers:nodes ~weights:(3, 1, 1, 0) ~corrupt_weight:2 ()
  in
  let extra =
    if Rng.bool rng then
      [
        {
          Faults.at = Rng.float rng (horizon /. 2.0);
          action = Faults.Crash_commit { point = (if Rng.bool rng then 1 else 0) };
        };
      ]
    else []
  in
  List.stable_sort
    (fun (a : Faults.event) b -> Float.compare a.Faults.at b.Faults.at)
    (profile @ extra)

(* The result surface compared across schedules: *outcomes* — did the
   application finish, how often did it restart, was data lost, and the
   restart-visible application state. Trace timings and *cost* metrics
   (scrub repairs performed, bytes shipped) are deliberately absent: both
   may legitimately differ when simultaneous events reorder — e.g. the
   commit that arrives second gets the dedup hit, which moves replica
   layout and with it the scrubber's work — while outcomes must not (see
   DESIGN.md section 13). *)
let render_chaos (c : Experiments.Durability.chaos) =
  let header =
    Fmt.str "finished=%b recoveries=%d unrepairable=%d integrity_failovers=%d"
      c.Experiments.Durability.report.Blobcr.Supervisor.finished
      c.Experiments.Durability.report.Blobcr.Supervisor.recoveries
      c.Experiments.Durability.scrub_stats.Blobseer.Scrubber.unrepairable
      c.Experiments.Durability.integrity_failures
  in
  let digests =
    List.map
      (fun (path, digest) -> Fmt.str "%s %Lx" path digest)
      c.Experiments.Durability.digests
  in
  String.concat "\n" (header :: digests)

let outcome_of_exn trace = function
  | Engine.Audit_failure (subject, violations) ->
      {
        results = "audit-failure";
        trace;
        violations = List.map (fun v -> subject ^ ": " ^ v) violations;
      }
  | e -> (
      match Blobcr.Protocol.error_class e with
      | `Fatal ->
          {
            results = "untyped-escape";
            trace;
            violations = [ "untyped escape: " ^ Printexc.to_string e ];
          }
      | c ->
          (* A typed failure is an acceptable outcome — but it is part of
             the result surface, so a schedule that fails where FIFO
             completes still registers as divergence. *)
          {
            results = Fmt.str "typed-error %a" Blobcr.Protocol.pp_error_class c;
            trace;
            violations = [];
          })

let chaos =
  {
    sname = "chaos";
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale = { scale with Experiments.Scale.schedule } in
        let result = ref None in
        let (), trace =
          Trace.capture (fun () ->
              match
                Experiments.Durability.chaos_run scale
                  ~script:(chaos_script scale ~fault_seed)
                  ~gang:scale.Experiments.Scale.durability_gang
                  ~units:scale.Experiments.Scale.durability_units ()
              with
              | c -> result := Some (Ok c)
              | exception e -> result := Some (Error e))
        in
        match Option.get !result with
        | Error e -> outcome_of_exn trace e
        | Ok c ->
            let violations =
              c.Experiments.Durability.audit
              @ List.map
                  (fun v -> Fmt.str "%a" Invariants.pp_violation v)
                  (Invariants.audit_engine c.Experiments.Durability.engine)
            in
            { results = render_chaos c; trace; violations })
  }

(* The precopy scenario: the chaos harness again, but with the live
   (pre-copy + background commit) checkpoint policy — and a fault script
   that always arms at least one mid-COMMIT version-manager crash, so
   crashes land while frozen deltas ship in the background. The abort path
   must fold the frozen epoch back into the dirty set and the supervisor
   must roll back to the last *fully committed* snapshot set; the frozen
   clone/diff-log liveness invariants audit the mirrors at teardown. The
   result surface is the same outcome-only one as [chaos]. *)
let precopy_script (scale : Experiments.Scale.t) ~fault_seed cluster =
  let rng = Rng.create fault_seed in
  let horizon =
    (float_of_int scale.Experiments.Scale.durability_units
    *. scale.Experiments.Scale.cm1_config.Workloads.Cm1.compute_per_iteration *. 3.0)
    +. 60.0
  in
  let nodes = Blobcr.Cluster.node_count cluster in
  (* Gentler background pressure than [chaos_script]: the point here is
     crashes landing mid-commit, not host-crash attrition — a profile harsh
     enough to abandon the gang leaves it mid-recovery at the horizon,
     where scrub counters legitimately depend on which replicas happen to
     be offline at scan time. *)
  let profile =
    Faults.of_profile ~rng
      ~mtbf:(scale.Experiments.Scale.durability_mtbf *. 4.0)
      ~horizon ~hosts:nodes ~providers:nodes ~weights:(1, 1, 2, 0) ()
  in
  let commit_crashes =
    List.init
      (1 + Rng.int rng 2)
      (fun _ ->
        {
          Faults.at = Rng.float rng horizon;
          action = Faults.Crash_commit { point = (if Rng.bool rng then 1 else 0) };
        })
  in
  List.stable_sort
    (fun (a : Faults.event) b -> Float.compare a.Faults.at b.Faults.at)
    (profile @ commit_crashes)

let precopy =
  {
    sname = "precopy";
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale = { scale with Experiments.Scale.schedule } in
        let policy =
          {
            Blobcr.Supervisor.default_policy with
            Blobcr.Supervisor.ckpt_mode =
              Blobcr.Approach.Live { rounds = 2; background = true };
          }
        in
        let result = ref None in
        let (), trace =
          Trace.capture (fun () ->
              match
                Experiments.Durability.chaos_run scale
                  ~script:(precopy_script scale ~fault_seed)
                  ~gang:scale.Experiments.Scale.durability_gang
                  ~units:scale.Experiments.Scale.durability_units ~policy ()
              with
              | c -> result := Some (Ok c)
              | exception e -> result := Some (Error e))
        in
        match Option.get !result with
        | Error e -> outcome_of_exn trace e
        | Ok c ->
            let violations =
              c.Experiments.Durability.audit
              @ List.map
                  (fun v -> Fmt.str "%a" Invariants.pp_violation v)
                  (Invariants.audit_engine c.Experiments.Durability.engine)
            in
            { results = render_chaos c; trace; violations })
  }

(* The disaster-recovery scenario: a supervised gang on a two-site
   cluster, with the site crash time (and the replication window) drawn
   from the fault seed so different streams catch the pipeline in
   different in-flight states. The result surface again keeps *outcomes*
   only: RPO/RTO and lag are deliberately absent — which commits beat the
   disaster into the standby legitimately shifts when simultaneous events
   reorder, while finishing on the standby with intact state must not. *)
let render_dr (o : Experiments.Dr.outcome) =
  let header =
    Fmt.str "finished=%b recoveries=%d failed_over=%b integrity_failures=%d"
      o.Experiments.Dr.report.Blobcr.Supervisor.finished
      o.Experiments.Dr.report.Blobcr.Supervisor.recoveries o.Experiments.Dr.failed_over
      o.Experiments.Dr.integrity_failures
  in
  let digests =
    List.map (fun (path, digest) -> Fmt.str "%s %Lx" path digest) o.Experiments.Dr.digests
  in
  String.concat "\n" (header :: digests)

let dr =
  {
    sname = "dr";
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale = { scale with Experiments.Scale.schedule } in
        let rng = Rng.create fault_seed in
        let interval = 2 in
        let crash_at =
          Experiments.Dr.default_crash_at scale ~interval
          +. Rng.float rng
               (2.0 *. scale.Experiments.Scale.cm1_config.Workloads.Cm1.compute_per_iteration)
        in
        let config =
          { Blobseer.Replicator.default_config with window = 1 + Rng.int rng 4 }
        in
        let result = ref None in
        let (), trace =
          Trace.capture (fun () ->
              match
                Experiments.Dr.dr_run scale ~config ~crash_at ~interval
                  ~gang:scale.Experiments.Scale.dr_gang
                  ~units:scale.Experiments.Scale.dr_units ()
              with
              | o -> result := Some (Ok o)
              | exception e -> result := Some (Error e))
        in
        match Option.get !result with
        | Error e -> outcome_of_exn trace e
        | Ok o ->
            let violations =
              o.Experiments.Dr.audit
              @ List.map
                  (fun v -> Fmt.str "%a" Invariants.pp_violation v)
                  (Invariants.audit_engine o.Experiments.Dr.engine)
            in
            { results = render_dr o; trace; violations })
  }

(* The chains scenario: the snapshot-chain harness (epoch writes with a
   background compactor) under a fault script of compaction crash points,
   background-service crashes and transient disk errors drawn from the
   fault seed. The result surface is the *settled* end state — the run
   finishes with a no-fault settle, so live/retired version sets are the
   retention policy's fixed point and the restored image digest is
   byte-identical whatever the schedule or mid-run crashes did; retry
   counts, crash recoveries and reclaim timing legitimately differ and
   are deliberately absent. *)
let chains_script (scale : Experiments.Scale.t) ~fault_seed cluster _compactor =
  let rng = Rng.create fault_seed in
  let horizon =
    float_of_int (List.fold_left max 2 scale.Experiments.Scale.chains_depths) *. 30.0
  in
  let nodes = Blobcr.Cluster.node_count cluster in
  let profile =
    Faults.of_profile ~rng ~mtbf:(horizon /. 8.0) ~horizon ~hosts:nodes ~providers:nodes
      ~weights:(0, 0, 2, 0) ~service_weight:3 ()
  in
  let extra =
    [
      {
        Faults.at = Rng.float rng (horizon /. 2.0);
        action = Faults.Crash_compaction { point = Rng.int rng 3 };
      };
    ]
  in
  List.stable_sort
    (fun (a : Faults.event) b -> Float.compare a.Faults.at b.Faults.at)
    (profile @ extra)

let render_chains (c : Experiments.Chains.chaos) =
  let o = c.Experiments.Chains.c_outcome in
  let ints vs = String.concat "," (List.map string_of_int vs) in
  Fmt.str "digest=%Lx live=[%s] retired=[%s]" o.Experiments.Chains.restart_digest
    (ints o.Experiments.Chains.live_versions)
    (ints o.Experiments.Chains.retired_versions)

let chains =
  {
    sname = "chains";
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale = { scale with Experiments.Scale.schedule } in
        let depth = List.fold_left max 2 scale.Experiments.Scale.chains_depths in
        let result = ref None in
        let (), trace =
          Trace.capture (fun () ->
              match
                Experiments.Chains.chaos_run scale
                  ~script:(chains_script scale ~fault_seed)
                  ~depth ()
              with
              | c -> result := Some (Ok c)
              | exception e -> result := Some (Error e))
        in
        match Option.get !result with
        | Error e -> outcome_of_exn trace e
        | Ok c ->
            let violations =
              List.map
                (fun v -> Fmt.str "%a" Invariants.pp_violation v)
                (Invariants.audit_engine
                   c.Experiments.Chains.c_outcome.Experiments.Chains.engine)
            in
            { results = render_chains c; trace; violations })
  }

(* Registry experiments as scenarios: no injected faults — the fault seed
   doubles as the engine seed, and the schedule-independent result surface
   is the experiment's rendered stats tables. *)
let experiment exp =
  {
    sname = "exp:" ^ exp.Experiments.Registry.id;
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale =
          { scale with Experiments.Scale.schedule; Experiments.Scale.seed = fault_seed }
        in
        let result = ref None in
        let (), trace =
          Trace.capture (fun () ->
              match
                Determinism.render_outputs
                  (exp.Experiments.Registry.run scale ~progress:(fun _ -> ()))
              with
              | rendered -> result := Some (Ok rendered)
              | exception e -> result := Some (Error e))
        in
        match Option.get !result with
        | Error e -> outcome_of_exn trace e
        | Ok rendered -> { results = rendered; trace; violations = [] })
  }

let scenarios = [ (chaos, 25); (dr, 5); (chains, 5); (precopy, 5) ]

let find_scenario name =
  match List.find_opt (fun (s, _) -> String.equal s.sname name) scenarios with
  | Some (s, _) -> Some s
  | None -> (
      match String.index_opt name ':' with
      | Some i when String.sub name 0 i = "exp" ->
          let id = String.sub name (i + 1) (String.length name - i - 1) in
          Option.map experiment (Experiments.Registry.find id)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Findings *)

type kind = Invariant | Untyped_escape | Result_divergence | Replay_divergence

let kind_to_string = function
  | Invariant -> "invariant"
  | Untyped_escape -> "untyped-escape"
  | Result_divergence -> "result-divergence"
  | Replay_divergence -> "replay-divergence"

type finding = {
  scenario : string;
  sample : sample;
  kind : kind;
  detail : string;
}

let repro_command f =
  Fmt.str "blobcr_lint fuzz --scenario %s --seed %d" f.scenario f.sample.seed

let pp_finding ppf f =
  Fmt.pf ppf "@[<v2>[%s] %s %a:@,%s@,replay: %s@]" (kind_to_string f.kind) f.scenario
    pp_sample f.sample f.detail (repro_command f)

let findings_of_outcome ~scenario ~sample outcome =
  List.map
    (fun detail ->
      let kind =
        if String.length detail >= 7 && String.sub detail 0 7 = "untyped" then
          Untyped_escape
        else Invariant
      in
      { scenario; sample; kind; detail })
    outcome.violations

let first_result_diff a b =
  match Determinism.diff_traces ~context:1 (String.split_on_char '\n' a) (String.split_on_char '\n' b) with
  | None -> "results differ"
  | Some d ->
      Fmt.str "first differing result line %d: %S vs %S" d.Determinism.line_no
        (Option.value ~default:"<end>" d.Determinism.first)
        (Option.value ~default:"<end>" d.Determinism.second)

(* ------------------------------------------------------------------ *)
(* The fuzz pass *)

type report = {
  rscenario : string;
  samples : sample list;
  findings : finding list;
  replays_checked : int;
}

let clean r = r.findings = []

let draw_slots rng schedules =
  (* Slot 0 (FIFO) is the per-fault-stream reference schedule; slot 1 is
     LIFO; further slots are distinct seeded shuffles. *)
  let rec draw taken n =
    if n = 0 then []
    else
      let s = 2 + Rng.int rng (slot_radix - 2) in
      if List.mem s taken then draw taken n else s :: draw (s :: taken) (n - 1)
  in
  List.init (min schedules 2) Fun.id @ draw [] (max 0 (schedules - 2))

let run ?(scale = Experiments.Scale.quick) ?(fault_streams = 5) ?(schedules = 5)
    ?(master_seed = 42) ?(progress = fun _ -> ()) scenario =
  if fault_streams <= 0 || schedules <= 0 then invalid_arg "Schedule_fuzz.run";
  Invariants.install ();
  let rng = Rng.create master_seed in
  let fault_seeds = List.init fault_streams (fun _ -> Rng.int rng 2_000_000) in
  let slots = draw_slots rng schedules in
  let findings = ref [] and samples = ref [] and replays = ref 0 in
  List.iter
    (fun fault_seed ->
      let baseline = ref None in
      List.iter
        (fun slot ->
          let sample = sample_of_seed (seed_of ~slot ~fault_seed) in
          samples := sample :: !samples;
          progress (Fmt.str "fuzz %s: %a" scenario.sname pp_sample sample);
          let outcome =
            scenario.srun scale ~schedule:sample.schedule ~fault_seed
          in
          findings :=
            List.rev_append
              (findings_of_outcome ~scenario:scenario.sname ~sample outcome)
              !findings;
          (match !baseline with
          | None -> baseline := Some (sample, outcome)
          | Some (ref_sample, ref_outcome) ->
              if not (String.equal ref_outcome.results outcome.results) then
                findings :=
                  {
                    scenario = scenario.sname;
                    sample;
                    kind = Result_divergence;
                    detail =
                      Fmt.str "results diverge from %a — %s" Event_queue.pp_schedule
                        ref_sample.schedule
                        (first_result_diff ref_outcome.results outcome.results);
                  }
                  :: !findings);
          (* Spot-check replay determinism on the last (most shuffled)
             schedule of every fault stream. *)
          if slot = List.nth slots (List.length slots - 1) then begin
            incr replays;
            let again = scenario.srun scale ~schedule:sample.schedule ~fault_seed in
            match Determinism.diff_traces outcome.trace again.trace with
            | None -> ()
            | Some d ->
                findings :=
                  {
                    scenario = scenario.sname;
                    sample;
                    kind = Replay_divergence;
                    detail =
                      Fmt.str "same seed, different trace at line %d: %S vs %S"
                        d.Determinism.line_no
                        (Option.value ~default:"<end>" d.Determinism.first)
                        (Option.value ~default:"<end>" d.Determinism.second);
                  }
                  :: !findings
          end)
        slots)
    fault_seeds;
  {
    rscenario = scenario.sname;
    samples = List.rev !samples;
    findings = List.rev !findings;
    replays_checked = !replays;
  }

let replay ?(scale = Experiments.Scale.quick) ~seed scenario =
  Invariants.install ();
  let sample = sample_of_seed seed in
  let outcome = scenario.srun scale ~schedule:sample.schedule ~fault_seed:sample.fault_seed in
  let again = scenario.srun scale ~schedule:sample.schedule ~fault_seed:sample.fault_seed in
  let findings = ref (findings_of_outcome ~scenario:scenario.sname ~sample outcome) in
  (match Determinism.diff_traces outcome.trace again.trace with
  | None -> ()
  | Some d ->
      findings :=
        {
          scenario = scenario.sname;
          sample;
          kind = Replay_divergence;
          detail =
            Fmt.str "same seed, different trace at line %d: %S vs %S" d.Determinism.line_no
              (Option.value ~default:"<end>" d.Determinism.first)
              (Option.value ~default:"<end>" d.Determinism.second);
        }
        :: !findings);
  (if sample.slot <> 0 then
     let fifo =
       scenario.srun scale ~schedule:Event_queue.Fifo ~fault_seed:sample.fault_seed
     in
     if not (String.equal fifo.results outcome.results) then
       findings :=
         {
           scenario = scenario.sname;
           sample;
           kind = Result_divergence;
           detail =
             Fmt.str "results diverge from fifo — %s"
               (first_result_diff fifo.results outcome.results);
         }
         :: !findings);
  (outcome, List.rev !findings)

let pp_report ppf r =
  if clean r then
    Fmt.pf ppf "%s: clean — %d samples (schedule x fault), %d replay-checked" r.rscenario
      (List.length r.samples) r.replays_checked
  else begin
    Fmt.pf ppf "%s: %d finding(s) over %d samples@," r.rscenario (List.length r.findings)
      (List.length r.samples);
    List.iter (fun f -> Fmt.pf ppf "%a@," pp_finding f) r.findings
  end
