(** Replay-divergence auditor.

    The simulator's contract (see {!Simcore.Engine}) is that the same seed
    yields the same event trace, byte for byte. This module enforces it
    dynamically: run a workload twice under {!Simcore.Trace.capture}, diff
    the traces and compare the rendered final statistics; the first
    divergent line is reported with surrounding context. *)

type divergence = {
  line_no : int;  (** 1-based index of the first differing trace line *)
  context : string list;  (** up to [context] identical lines preceding it *)
  first : string option;  (** the line in run 1 ([None]: trace ended) *)
  second : string option;  (** the line in run 2 *)
}

type report = {
  name : string;
  seed : int;
  lines : int * int;  (** trace lengths of the two runs *)
  first_divergence : divergence option;
  outputs_match : bool;  (** rendered stats tables byte-identical *)
}

val identical : report -> bool
(** No trace divergence and outputs match. *)

val diff_traces : ?context:int -> string list -> string list -> divergence option
(** [None] when equal. Default [context] is 3 lines. *)

val compare_runs : name:string -> ?seed:int -> (unit -> string) -> report
(** Run the thunk twice, capturing traces; the returned string is the
    run's "final stats" and must also match. [seed] is report metadata —
    the thunk is responsible for actually applying it. *)

val render_outputs : Experiments.Registry.result -> string
(** Every result table, each preceded by its name: the surface
    {!check_experiment} and schedule fuzzing compare across runs. *)

val check_experiment :
  exp:Experiments.Registry.t -> scale:Experiments.Scale.t -> seed:int -> report
(** Run a registry experiment twice at [scale] with the engine seed forced
    to [seed] and compare traces and rendered output tables. *)

val check_scrub_replay : ?scale:Experiments.Scale.t -> seed:int -> unit -> report
(** Run the durability chaos scenario ({!Experiments.Durability.chaos_run}:
    silent corruption, a mid-COMMIT service crash and a host crash, with a
    background scrubber) twice under the same seed and require the
    scrub/repair event logs — and the engine traces — to be byte-identical.
    Default scale is [quick]. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable verdict, including the first divergence with its
    context lines when the runs differ. *)
