(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit [Rng.t]
    so that simulations are reproducible: the same seed yields the same event
    trace, byte-for-byte. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Distinct seeds give independent
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.
    Test-only: a test rig hook. *)

val int64 : t -> int64
(** Next raw 64-bit output. Test-only: an observer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. Used for failure inter-arrival times. *)

val of_key : seed:int -> string -> t
(** [of_key ~seed name] is a generator whose stream is a pure function of
    [(seed, name)]. Unlike {!split}, it consumes nothing from any parent
    stream, so the stream a component receives never depends on {e the
    order} in which components were created — the property that keeps
    simulation results independent of event tie-break scheduling (see
    {!Engine.derived_rng}). *)

val rank : seed:int -> int -> int
(** [rank ~seed i] is a non-negative pseudo-random priority for index [i]
    under stream [seed] — a pure function of [(seed, i)]. Used by
    {!Event_queue} to permute same-timestamp event runs deterministically
    without any mutable generator state. *)
