(** Observability collector: spans, metric cells and run snapshots.

    A {e collector} is installed for the duration of one {!capture} call (a
    global, like the sink {!Simcore.Trace.capture} installs); while
    installed, {!Span} and {!Metrics} record into it. When no collector is installed every
    recording entry point is a no-op that reads neither the clock nor the
    RNG, so observability-off runs are bit-identical to uninstrumented
    ones. *)

type value = Int of int | Bytes of int | Float of float | Str of string
(** A typed span attribute. [Bytes] renders with binary size units. *)

type span = {
  id : int;  (** Unique per capture, in open order. *)
  parent : int option;  (** Enclosing span on the same fiber, if any. *)
  track : int;  (** Timeline index: one per engine seen by the capture. *)
  fiber : int;  (** Engine fiber id, or [-1] outside any fiber. *)
  fiber_name : string;  (** The fiber's name, or ["scheduler"]. *)
  component : string;  (** Subsystem, e.g. ["mirror"] — the trace component. *)
  name : string;  (** Phase name, e.g. ["ckpt.commit"]. *)
  start_time : float;  (** Simulated start time (seconds). *)
  duration : float;  (** Simulated duration (seconds). *)
  attrs : (string * value) list;  (** Attributes, in attachment order. *)
}
(** One closed begin/end interval of simulated time. *)

type kind = Counter | Gauge | Histogram
(** Metric flavour: monotonic sum, last-value, or value distribution. *)

val kind_name : kind -> string
(** Lower-case name of the kind, for tables and JSON. *)

type metric = {
  m_component : string;  (** Registering subsystem. *)
  m_name : string;  (** Metric name, unique within the component. *)
  m_kind : kind;  (** Declared flavour. *)
  samples : int;  (** Number of recorded observations. *)
  total : float;  (** Sum of observations (counters), or last value (gauges). *)
  vmin : float;  (** Smallest observation, [0.] when none. *)
  vmax : float;  (** Largest observation, [0.] when none. *)
  last : float;  (** Most recent observation, [0.] when none. *)
}
(** Snapshot of one metric cell at capture end. *)

type run = {
  spans : span list;  (** All closed spans, in completion order. *)
  metrics : metric list;  (** Every registered metric, sorted by (component, name). *)
  tracks : (int * string) list;  (** Track id to label, in creation order. *)
}
(** Everything one {!capture} observed. *)

val capture : (unit -> 'a) -> 'a * run
(** [capture f] installs a fresh collector, runs [f], and returns its result
    with the recorded {!run}. Captures nest: the previous collector is
    restored on exit, including on exception. Spans still open when [f]
    returns (fibers left blocked at quiescence) are dropped from the
    snapshot. *)

val recording : unit -> bool
(** Whether a collector is currently installed. Instrumentation uses this to
    skip attribute computation entirely when observability is off.
    Test-only: an observer. *)

val label_track : Simcore.Engine.t -> string -> unit
(** [label_track engine l] names the timeline of [engine] (e.g.
    ["BlobCR-app n=120"]) in exports. No-op when not recording. *)

(**/**)

(* Internal plumbing for Span and Metrics; not for direct use. *)

type open_span

val open_span :
  Simcore.Engine.t ->
  component:string ->
  name:string ->
  attrs:(string * value) list ->
  open_span option

val close_span : Simcore.Engine.t -> open_span -> unit
val add_attr : Simcore.Engine.t -> string -> value -> unit
val register : component:string -> name:string -> kind -> unit
val observe : component:string -> name:string -> float -> unit
val set : component:string -> name:string -> float -> unit

(**/**)
