(** Lightweight simulation tracing.

    Components emit trace points tagged with the simulated time; tracing is
    off by default and cheap when disabled. Determinism tests capture the
    trace of two runs and compare them. *)

val enabled : unit -> bool
(** Whether a sink is currently installed. Test-only: an observer. *)

val emit : Engine.t -> component:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [emit engine ~component fmt ...] sends a formatted trace point to the
    sink, if any. The format arguments are not evaluated when tracing is
    disabled. *)

val capture : (unit -> 'a) -> 'a * string list
(** [capture f] runs [f] with a collecting sink installed and returns its
    result together with the rendered trace lines ["t=...s [component] msg"].
    Restores the previous sink afterwards. *)
