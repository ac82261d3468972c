(** Schedule-fuzzing race detector and replay checker (deterministic
    simulation testing).

    The engine's determinism contract pins {e one} schedule: same seed,
    same trace. {!replay} enforces that contract — it runs a sample twice
    and diffs the traces and the rendered results byte for byte. The fuzz
    pass ({!run}) also explores the schedules the contract never exercises
    — alternative interleavings of {e simultaneous} events — by sampling
    (tie-break policy x fault script) pairs and checking, after every run,
    the full invariant battery plus {e schedule-independence of results}:
    rendered results must be byte-identical across schedules even though
    traces legitimately differ (see DESIGN.md section 13).

    Every sample is a single integer seed encoding both the schedule slot
    and the fault stream, so each finding carries a one-line repro command
    ([blobcr_lint fuzz --scenario S --seed N]) that {!replay} reproduces
    byte-for-byte. *)

open Simcore

(** {1 Samples} *)

type sample = {
  seed : int;  (** [fault_seed * 1000 + slot] — the replayable identity *)
  slot : int;  (** schedule slot: 0 = FIFO, 1 = LIFO, else a shuffle seed *)
  fault_seed : int;  (** seeds the fault script (chaos) or the engine (exp) *)
  schedule : Event_queue.schedule;  (** the decoded tie-break policy *)
}

val schedule_of_slot : int -> Event_queue.schedule
(** Slot 0 is {!Event_queue.Fifo}, 1 is {!Event_queue.Lifo}, any other
    slot is [Seeded_shuffle slot]. Test-only: a test rig hook. *)

val seed_of : slot:int -> fault_seed:int -> int
(** Encode a (slot, fault stream) pair into one replayable seed. Raises
    [Invalid_argument] unless [0 <= slot < 1000] and [fault_seed >= 0]. *)

val sample_of_seed : int -> sample
(** Decode a seed printed by a finding back into its sample. *)

val pp_sample : Format.formatter -> sample -> unit
(** ["seed=N (schedule P, fault stream F)"]. *)

(** {1 Comparing runs} *)

type divergence = {
  line_no : int;  (** 1-based index of the first differing line *)
  first : string option;  (** the line in run 1 ([None]: it ended) *)
  second : string option;  (** the line in run 2 *)
}

val diff_traces : string list -> string list -> divergence option
(** The first differing line of two traces; [None] when equal.
    Test-only: a test rig hook. *)

(** {1 Scenarios} *)

type outcome = {
  results : string;
      (** the schedule-independent result surface, rendered — byte-compared
          across schedules *)
  trace : string list;  (** full engine trace of the run *)
  violations : string list;  (** invariant-battery violations (empty = clean) *)
}

type scenario = {
  sname : string;
      (** ["chaos"], ["precopy"], ["dr"], ["chains"], ["scrub"] or
          ["exp:<id>"] — appears in repro commands *)
  srun : Experiments.Scale.t -> schedule:Event_queue.schedule -> fault_seed:int -> outcome;
}

val make_scenario :
  strict:bool ->
  string ->
  run:(Experiments.Scale.t -> fault_seed:int -> 'a) ->
  render:('a -> string) ->
  audit:('a -> string list) ->
  scenario
(** [make_scenario ~strict name ~run ~render ~audit] is a scenario whose sample
    runs [run] (its scale already carrying the sample's schedule) under
    {!Simcore.Trace.capture}. An escaped exception is classified: an
    untyped one or an audit failure is a violation, a typed failure
    becomes the result and, when [strict], a violation too (a scenario
    whose faults may legitimately end the run is not strict).
    Otherwise [render] gives the result surface and [audit] the
    violations. Test-only: a test rig hook. *)

val chaos_script :
  Experiments.Scale.t -> fault_seed:int -> Blobcr.Cluster.t -> Faults.event list
(** The fault script {!chaos} runs for a fault stream: an MTBF-profile
    script drawn from [fault_seed], plus a version-manager crash armed
    mid-COMMIT on half the streams. Test-only: a test rig hook. *)

val chaos : scenario
(** The durability chaos harness ({!Experiments.Durability.chaos_run})
    under an MTBF-profile fault script generated from the fault seed —
    host crashes, provider fail-stops, transient disk errors, silent
    corruption, and (on half the fault streams) a version-manager crash
    armed mid-COMMIT. Results are {e outcomes} — completion, recoveries,
    data loss, integrity failovers, and the restart-visible
    application-state digests; cost metrics (repairs performed, bytes
    shipped) are excluded because they legitimately vary with tie order.
    Violations come from the supervisor audit and the engine's full
    invariant battery.
    Test-only: the CLI reaches it through {!find_scenario}. *)

val scrub : scenario
(** The durability stage's scrub-log replay:
    {!Experiments.Durability.chaos_run} under its default fault script
    (silent corruption, a mid-COMMIT service crash and a host crash, with
    a background scrubber), with the fault seed as the engine seed. The result surface is the scrub/repair
    event log and its counts. The log carries event times, so this is a
    fifo-replay subject: non-fifo samples diverge from fifo by design.
    Strict: the supervisor must absorb the script's faults, so any
    escaped exception is a violation. *)

val experiment : Experiments.Registry.t -> scenario
(** A registry experiment as a scenario: no injected faults, so strict
    (any escaped exception is a violation) — the fault seed doubles as
    the engine seed and the result surface is the rendered
    stats tables. Slot 0 is fifo, so [replay ~seed:(n * 1000)] runs the
    experiment twice at engine seed [n] and diffs traces and tables.
    Those tables include timings, which legitimately move when
    simultaneous events reorder: non-fifo samples of timing experiments
    (e.g. [fig5a]) report [result-divergence] against fifo by design,
    while count-only experiments (e.g. [dedup]) stay clean.
    Test-only: the CLI reaches it through {!find_scenario}. *)

val scenarios : (scenario * int) list
(** The fuzz scenarios with their smoke-pass sample counts, in the order
    [blobcr_lint all] runs them: chaos 25, dr 5, chains 5, precopy 5. *)

val named : scenario list
(** Every scenario {!find_scenario} knows by name: {!scrub}, then those
    of {!scenarios}. *)

val find_scenario : string -> scenario option
(** A scenario of {!named} by name, or ["exp:<id>"] for any registry
    experiment id. *)

(** {1 Findings} *)

(** Why a sample failed. *)
type kind =
  | Invariant  (** the post-run invariant battery reported violations *)
  | Untyped_escape  (** the run died with an unclassified exception *)
  | Result_divergence
      (** results differ from the FIFO reference run of the same fault
          stream — the code is schedule-dependent — or from a same-seed
          rerun *)
  | Replay_divergence
      (** the same seed produced two different traces — the policy or the
          scenario leaks nondeterminism *)

type finding = {
  scenario : string;
  sample : sample;
  kind : kind;
  detail : string;
}

val repro_command : finding -> string
(** ["blobcr_lint fuzz --scenario S --seed N"] — replays this exact
    sample. Test-only: a test rig hook. *)

val pp_finding : Format.formatter -> finding -> unit
(** Multi-line rendering: kind, sample, detail and the repro command. *)

(** {1 Running} *)

type report = {
  rscenario : string;
  samples : sample list;  (** every (schedule x fault) sample run, in order *)
  findings : finding list;
  replays_checked : int;
      (** samples additionally re-run for trace and result equality *)
}

val clean : report -> bool
(** No findings. *)

val run :
  ?scale:Experiments.Scale.t ->
  ?fault_streams:int ->
  ?schedules:int ->
  ?master_seed:int ->
  ?progress:(string -> unit) ->
  scenario ->
  report
(** Sample a [fault_streams x schedules] grid (defaults 5 x 5 = 25
    samples at [quick] scale). Per fault stream, the first schedule is
    always FIFO and serves as the result reference; the last schedule of
    every stream goes through {!replay}'s same-seed check. The grid is
    derived from [master_seed] (default 42), so the whole pass is itself
    deterministic. *)

val replay :
  ?scale:Experiments.Scale.t -> seed:int -> scenario -> outcome * finding list
(** Re-run one sample: executes it twice and diffs the traces and the
    rendered results (byte-for-byte), re-checks the invariant battery,
    and — for non-FIFO samples — compares results against a fresh FIFO
    reference of the same fault stream. Returns the first run's
    outcome. *)

val pp_report : Format.formatter -> report -> unit
(** One line when clean; otherwise every finding with its repro command. *)
