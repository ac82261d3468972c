(** Nested timing spans over simulated time.

    A span brackets a region of fiber code: it records the simulated times
    at entry and exit, the enclosing span on the same fiber (if any) as its
    parent, and a list of typed attributes. When no collector is installed
    ({!Record.capture} is not active) every function here is a pass-through
    with zero simulation effect. *)

val with_ :
  Simcore.Engine.t ->
  component:string ->
  name:string ->
  ?attrs:(string * Record.value) list ->
  (unit -> 'a) ->
  'a
(** [with_ engine ~component ~name f] runs [f] inside a span. The span
    closes when [f] returns or raises. [component] is the subsystem (same
    vocabulary as {!Simcore.Trace.emit}); [name] is the phase, dotted by
    convention (e.g. ["ckpt.ship"]). Initial [attrs] may be extended from
    inside [f] with {!add_attr}. *)

val add_attr : Simcore.Engine.t -> string -> Record.value -> unit
(** Attach an attribute to the innermost open span of the calling fiber.
    No-op when not recording or when no span is open. *)
