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
(* Comparing runs *)

type divergence = {
  line_no : int;
  first : string option;
  second : string option;
}

let diff_traces a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | la :: ra, lb :: rb when String.equal la lb -> go (i + 1) ra rb
    | _ -> Some { line_no = i + 1; first = List.nth_opt a 0; second = List.nth_opt b 0 }
  in
  go 0 a b

let pp_divergence ppf d =
  Fmt.pf ppf "%d: %S vs %S" d.line_no
    (Option.value ~default:"<end>" d.first)
    (Option.value ~default:"<end>" d.second)

let render_outputs (result : Experiments.Registry.result) =
  String.concat "\n"
    (List.map (fun (name, table) -> name ^ "\n" ^ Stats.render table) result.tables)

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

(* A typed failure is an acceptable outcome of a faulted run — but it is
   part of the result surface, so a schedule that fails where FIFO
   completes still registers as divergence. A [strict] scenario must
   return: any escape is a violation. *)
let outcome_of_exn ~strict trace = function
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
          let results = Fmt.str "typed-error %a" Blobcr.Protocol.pp_error_class c in
          let violations =
            if strict then
              [ Fmt.str "strict scenario escaped (%s): %s" results (Printexc.to_string e) ]
            else []
          in
          { results; trace; violations })

(* The one place a scenario runs: capture the engine trace around the
   run, classify an escaped exception, otherwise render and audit. *)
let make_scenario ~strict sname ~run ~render ~audit =
  {
    sname;
    srun =
      (fun scale ~schedule ~fault_seed ->
        let scale = { scale with Experiments.Scale.schedule } in
        match
          Trace.capture (fun () ->
              match run scale ~fault_seed with r -> Ok r | exception e -> Error e)
        with
        | Error e, trace -> outcome_of_exn ~strict trace e
        | Ok r, trace -> { results = render r; trace; violations = audit r });
  }

let engine_violations engine =
  List.map (Fmt.str "%a" Engine.pp_violation) (Engine.audit engine)

let render_digests header digests =
  String.concat "\n" (header :: List.map (fun (path, d) -> Fmt.str "%s %Lx" path d) digests)

let by_time events =
  List.stable_sort
    (fun (a : Faults.event) b -> Float.compare a.Faults.at b.Faults.at)
    events

(* The supervised durability harness (CM1 gang, background scrubber,
   journaled commits) runs for about three compute iterations per unit,
   plus slack for recoveries. *)
let durability_horizon (scale : Experiments.Scale.t) =
  (float_of_int scale.Experiments.Scale.durability_units
  *. scale.Experiments.Scale.cm1_config.Workloads.Cm1.compute_per_iteration *. 3.0)
  +. 60.0

let commit_crash rng ~within =
  {
    Faults.at = Rng.float rng within;
    action = Faults.Crash_commit { point = (if Rng.bool rng then 1 else 0) };
  }

(* The chaos script: an MTBF-profile fault script drawn from the fault
   seed. Half the fault streams additionally arm a mid-COMMIT
   version-manager crash, so journal recovery races the scrubber and the
   supervisor's rollback. *)
let chaos_script scale ~fault_seed cluster =
  let rng = Rng.create fault_seed in
  let horizon = durability_horizon scale in
  let nodes = Blobcr.Cluster.node_count cluster in
  let profile =
    Faults.of_profile ~rng ~mtbf:scale.Experiments.Scale.durability_mtbf ~horizon
      ~hosts:nodes ~providers:nodes ~weights:(3, 1, 1, 0) ~corrupt_weight:2 ()
  in
  by_time
    (profile @ if Rng.bool rng then [ commit_crash rng ~within:(horizon /. 2.0) ] else [])

(* The precopy script always arms at least one mid-COMMIT crash, so
   crashes land while frozen deltas ship in the background. Its background
   pressure is gentler than [chaos_script]'s: the point here is crashes
   landing mid-commit, not host-crash attrition — a profile harsh enough
   to abandon the gang leaves it mid-recovery at the horizon, where scrub
   counters legitimately depend on which replicas happen to be offline at
   scan time. *)
let precopy_script scale ~fault_seed cluster =
  let rng = Rng.create fault_seed in
  let horizon = durability_horizon scale in
  let nodes = Blobcr.Cluster.node_count cluster in
  let profile =
    Faults.of_profile ~rng
      ~mtbf:(scale.Experiments.Scale.durability_mtbf *. 4.0)
      ~horizon ~hosts:nodes ~providers:nodes ~weights:(1, 1, 2, 0) ()
  in
  by_time
    (profile @ List.init (1 + Rng.int rng 2) (fun _ -> commit_crash rng ~within:horizon))

(* The result surface compared across schedules: *outcomes* — did the
   application finish, how often did it restart, which snapshots were
   lost (the scrubber's final bad (blob, version) sites, which the
   rollback-target filter reads), and the restart-visible application
   state. Trace timings and *cost* metrics (scrub repairs performed,
   unrepairable chunks counted, bytes shipped) are deliberately absent:
   they may legitimately differ when simultaneous events reorder — e.g.
   the commit that arrives second gets the dedup hit, which moves replica
   layout and with it the scrubber's work — while outcomes must not (see
   DESIGN.md section 13). *)
let render_chaos (c : Experiments.Durability.chaos) =
  render_digests
    (Fmt.str "finished=%b recoveries=%d bad_sites={%s} integrity_failovers=%d"
       c.Experiments.Durability.report.Blobcr.Supervisor.finished
       c.Experiments.Durability.report.Blobcr.Supervisor.recoveries
       (String.concat " "
          (List.map
             (fun (blob, version) -> Fmt.str "(%d,%d)" blob version)
             (Blobseer.Scrubber.bad_sites c.Experiments.Durability.scrubber)))
       c.Experiments.Durability.integrity_failures)
    c.Experiments.Durability.digests

let chaos_audit (c : Experiments.Durability.chaos) =
  c.Experiments.Durability.audit @ engine_violations c.Experiments.Durability.engine

(* [chaos] and [precopy] differ only in their fault script and their
   supervisor policy. *)
let supervised sname ?policy script =
  make_scenario ~strict:false sname
    ~run:(fun scale ~fault_seed ->
      Experiments.Durability.chaos_run scale ~script:(script scale ~fault_seed)
        ~gang:scale.Experiments.Scale.durability_gang
        ~units:scale.Experiments.Scale.durability_units ?policy ())
    ~render:render_chaos ~audit:chaos_audit

let chaos = supervised "chaos" chaos_script

(* The live (pre-copy + background commit) checkpoint policy: the abort
   path must fold the frozen epoch back into the dirty set and the
   supervisor must roll back to the last *fully committed* snapshot set;
   the frozen clone/diff-log liveness invariants audit the mirrors at
   teardown. *)
let precopy =
  supervised "precopy" precopy_script
    ~policy:
      {
        Blobcr.Supervisor.default_policy with
        Blobcr.Supervisor.ckpt_mode =
          Blobcr.Approach.Live { rounds = 2; background = true };
      }

(* The durability stage's scrub-log replay: the default chaos script
   (silent corruption, mid-COMMIT crash, host crash) with the fault seed
   as the engine seed. Repairs are part of the recovery path, so the
   rendered surface is the scrub/repair log itself plus its counts. The
   log carries event times, so it is a fifo-replay subject: non-fifo
   samples diverge from fifo by design. The supervisor must absorb the
   script's faults, so the scenario is strict. *)
let scrub =
  make_scenario ~strict:true "scrub"
    ~run:(fun scale ~fault_seed ->
      Experiments.Durability.chaos_run
        { scale with Experiments.Scale.seed = fault_seed }
        ())
    ~render:(fun c ->
      let stats = Blobseer.Scrubber.stats c.Experiments.Durability.scrubber in
      Experiments.Durability.render_scrub_log c
      ^ Fmt.str "\nfinished=%b recoveries=%d repairs=%d repair_bytes=%d"
          c.Experiments.Durability.report.Blobcr.Supervisor.finished
          c.Experiments.Durability.report.Blobcr.Supervisor.recoveries
          stats.Blobseer.Scrubber.repairs stats.Blobseer.Scrubber.repair_bytes)
    ~audit:chaos_audit

(* The disaster-recovery scenario: a supervised gang on a two-site
   cluster, with the site crash time (and the replication window) drawn
   from the fault seed so different streams catch the pipeline in
   different in-flight states. The result surface again keeps *outcomes*
   only: RPO/RTO and lag are deliberately absent — which commits beat the
   disaster into the standby legitimately shifts when simultaneous events
   reorder, while finishing on the standby with intact state must not. *)
let dr =
  make_scenario ~strict:false "dr"
    ~run:(fun scale ~fault_seed ->
      let rng = Rng.create fault_seed in
      let interval = 2 in
      let crash_at =
        Experiments.Dr.default_crash_at scale ~interval
        +. Rng.float rng
             (2.0 *. scale.Experiments.Scale.cm1_config.Workloads.Cm1.compute_per_iteration)
      in
      let config = { Blobseer.Replicator.default_config with window = 1 + Rng.int rng 4 } in
      Experiments.Dr.dr_run scale ~config ~crash_at ~interval
        ~gang:scale.Experiments.Scale.dr_gang ~units:scale.Experiments.Scale.dr_units ())
    ~render:(fun (o : Experiments.Dr.outcome) ->
      render_digests
        (Fmt.str "finished=%b recoveries=%d failed_over=%b integrity_failures=%d"
           o.Experiments.Dr.report.Blobcr.Supervisor.finished
           o.Experiments.Dr.report.Blobcr.Supervisor.recoveries o.Experiments.Dr.failed_over
           o.Experiments.Dr.integrity_failures)
        o.Experiments.Dr.digests)
    ~audit:(fun o -> o.Experiments.Dr.audit @ engine_violations o.Experiments.Dr.engine)

(* The chains scenario: the snapshot-chain harness (epoch writes with a
   background compactor) under a fault script of compaction crash points,
   background-service crashes and transient disk errors drawn from the
   fault seed. The result surface is the *settled* end state — the run
   finishes with a no-fault settle, so live/retired version sets are the
   retention policy's fixed point and the restored image digest is
   byte-identical whatever the schedule or mid-run crashes did; retry
   counts, crash recoveries and reclaim timing legitimately differ and
   are deliberately absent. *)
let chains_script ~depth ~fault_seed cluster _compactor =
  let rng = Rng.create fault_seed in
  let horizon = float_of_int depth *. 30.0 in
  let nodes = Blobcr.Cluster.node_count cluster in
  let profile =
    Faults.of_profile ~rng ~mtbf:(horizon /. 8.0) ~horizon ~hosts:nodes ~providers:nodes
      ~weights:(0, 0, 2, 0) ~service_weight:3 ()
  in
  by_time
    (profile
    @ [
        {
          Faults.at = Rng.float rng (horizon /. 2.0);
          action = Faults.Crash_compaction { point = Rng.int rng 3 };
        };
      ])

let chains =
  make_scenario ~strict:false "chains"
    ~run:(fun scale ~fault_seed ->
      let depth = List.fold_left max 2 scale.Experiments.Scale.chains_depths in
      Experiments.Chains.chaos_run scale
        ~script:(chains_script ~depth ~fault_seed)
        ~depth ())
    ~render:(fun (c : Experiments.Chains.chaos) ->
      let o = c.Experiments.Chains.c_outcome in
      let ints vs = String.concat "," (List.map string_of_int vs) in
      Fmt.str "digest=%Lx live=[%s] retired=[%s]" o.Experiments.Chains.restart_digest
        (ints o.Experiments.Chains.live_versions)
        (ints o.Experiments.Chains.retired_versions))
    ~audit:(fun c ->
      engine_violations c.Experiments.Chains.c_outcome.Experiments.Chains.engine)

(* Registry experiments as scenarios: no injected faults, so strict — the
   fault seed doubles as the engine seed, and the result surface is the
   experiment's rendered stats tables. *)
let experiment exp =
  make_scenario ~strict:true ("exp:" ^ exp.Experiments.Registry.id)
    ~run:(fun scale ~fault_seed ->
      exp.Experiments.Registry.run
        { scale with Experiments.Scale.seed = fault_seed }
        ~progress:(fun _ -> ()))
    ~render:render_outputs
    ~audit:(fun _ -> [])

let scenarios = [ (chaos, 25); (dr, 5); (chains, 5); (precopy, 5) ]

let named = scrub :: List.map fst scenarios

let find_scenario name =
  match List.find_opt (fun s -> String.equal s.sname name) named with
  | Some s -> Some s
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

let invariant_findings scenario sample outcome =
  List.map
    (fun detail ->
      let kind =
        if String.length detail >= 7 && String.sub detail 0 7 = "untyped" then
          Untyped_escape
        else Invariant
      in
      { scenario = scenario.sname; sample; kind; detail })
    outcome.violations

(* [results] of [sample] against the [reference] results of a run under
   [against]: a finding unless byte-identical. *)
let result_divergence scenario sample ~against reference results =
  if String.equal reference results then []
  else
    let detail =
      match
        diff_traces
          (String.split_on_char '\n' reference)
          (String.split_on_char '\n' results)
      with
      | None -> "results differ"
      | Some d -> Fmt.str "first differing result line %a" pp_divergence d
    in
    [
      {
        scenario = scenario.sname;
        sample;
        kind = Result_divergence;
        detail = Fmt.str "results diverge from %s — %s" against detail;
      };
    ]

let observe_sample ~scale scenario sample =
  scenario.srun scale ~schedule:sample.schedule ~fault_seed:sample.fault_seed

(* The one replay check: observe [sample] twice. A differing trace is a
   replay divergence, differing rendered results a result divergence.
   Returns the first run's outcome. *)
let replay_sample ~scale scenario sample =
  let first = observe_sample ~scale scenario sample in
  let again = observe_sample ~scale scenario sample in
  let trace =
    match diff_traces first.trace again.trace with
    | None -> []
    | Some d ->
        [
          {
            scenario = scenario.sname;
            sample;
            kind = Replay_divergence;
            detail = Fmt.str "same seed, different trace at line %a" pp_divergence d;
          };
        ]
  in
  ( first,
    trace
    @ result_divergence scenario sample ~against:"a same-seed rerun" first.results
        again.results )

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
  let rng = Rng.create master_seed in
  let fault_seeds = List.init fault_streams (fun _ -> Rng.int rng 2_000_000) in
  let slots = draw_slots rng schedules in
  let last_slot = List.nth slots (List.length slots - 1) in
  let findings = ref [] and samples = ref [] and replays = ref 0 in
  List.iter
    (fun fault_seed ->
      let baseline = ref None in
      List.iter
        (fun slot ->
          let sample = sample_of_seed (seed_of ~slot ~fault_seed) in
          samples := sample :: !samples;
          progress (Fmt.str "fuzz %s: %a" scenario.sname pp_sample sample);
          (* Spot-check replay on the last (most shuffled) schedule of
             every fault stream. *)
          let outcome, replayed =
            if slot = last_slot then begin
              incr replays;
              replay_sample ~scale scenario sample
            end
            else (observe_sample ~scale scenario sample, [])
          in
          let diverged =
            match !baseline with
            | None ->
                baseline := Some (sample, outcome);
                []
            | Some (ref_sample, ref_outcome) ->
                result_divergence scenario sample
                  ~against:(Fmt.str "%a" Event_queue.pp_schedule ref_sample.schedule)
                  ref_outcome.results outcome.results
          in
          findings :=
            List.rev_append
              (invariant_findings scenario sample outcome @ diverged @ replayed)
              !findings)
        slots)
    fault_seeds;
  {
    rscenario = scenario.sname;
    samples = List.rev !samples;
    findings = List.rev !findings;
    replays_checked = !replays;
  }

let replay ?(scale = Experiments.Scale.quick) ~seed scenario =
  let sample = sample_of_seed seed in
  let outcome, replayed = replay_sample ~scale scenario sample in
  let against_fifo =
    if sample.slot = 0 then []
    else
      let fifo =
        observe_sample ~scale scenario
          (sample_of_seed (seed_of ~slot:0 ~fault_seed:sample.fault_seed))
      in
      result_divergence scenario sample ~against:"fifo" fifo.results outcome.results
  in
  (outcome, invariant_findings scenario sample outcome @ replayed @ against_fifo)

let pp_report ppf r =
  if clean r then
    Fmt.pf ppf "%s: clean — %d samples (schedule x fault), %d replay-checked" r.rscenario
      (List.length r.samples) r.replays_checked
  else begin
    Fmt.pf ppf "%s: %d finding(s) over %d samples@," r.rscenario (List.length r.findings)
      (List.length r.samples);
    List.iter (fun f -> Fmt.pf ppf "%a@," pp_finding f) r.findings
  end
