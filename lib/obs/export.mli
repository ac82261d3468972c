(** Exporters for captured observability runs: Chrome-trace timelines,
    flat metric tables and critical-path phase breakdowns. *)

val chrome_trace : Record.run -> string
(** Serialize a run as Chrome trace event format JSON (["X"] complete
    events in microseconds, one pid per simulation track, one tid per
    fiber, ["M"] metadata naming both). Open the file at [chrome://tracing]
    or [ui.perfetto.dev]. *)

val validate_json : string -> (unit, string) result
(** Check that a string is one well-formed JSON value (full grammar, no
    value built). [Error] carries the first offending byte offset.
    Test-only: checks exported documents in tests. *)

val write_chrome_trace : Record.run -> path:string -> unit
(** Write {!chrome_trace} to [path] after checking it with
    {!validate_json}. Raises [Failure], writing nothing, if the JSON is
    malformed. *)

val metrics_table : Record.run -> string
(** Render the metric snapshot as an aligned text table, one row per
    registered metric: component, name, kind, samples, total, min, max,
    last. *)

type breakdown = {
  b_track : int;  (** Track the breakdown describes. *)
  b_label : string;  (** The track's label. *)
  b_root : Record.span;  (** The latest-finishing root span — the run's critical path. *)
  b_phases : (string * float) list;  (** Leaf phase name to summed seconds, in start order. *)
  b_leaf_total : float;  (** Sum of all leaf phase durations. *)
  b_residual : float;  (** Root duration minus [b_leaf_total] (uninstrumented gap). *)
}
(** Phase decomposition of one track's critical path. *)

val breakdown : Record.run -> root:string -> breakdown list
(** [breakdown run ~root] decomposes, for each track containing top-level
    spans named [root], the latest-finishing such span into its leaf
    descendants. Because every branch starts together and simulated time
    only advances inside instrumented blocking operations, the leaf phases
    tile the root: [b_leaf_total] matches the root duration up to
    uninstrumented residual. Test-only: an observer. *)

val phase_table : Record.run -> root:string -> string
(** Render {!breakdown} as aligned text tables, one per track: phase,
    component, seconds and share of the critical-path duration. *)
