(** Priority queue of timestamped events.

    Events are ordered by time; how same-timestamp ties break is a
    pluggable {!schedule} policy. The default, {!Fifo}, orders ties by a
    monotonically increasing insertion counter, so simultaneous events run
    in insertion order and the simulation is fully deterministic — and
    bit-identical to the historical behavior. The other policies exist to
    {e fuzz} schedules (see [Analysis.Schedule_fuzz]): they permute only
    same-timestamp runs, never the time order, and are equally
    deterministic for a fixed policy value.

    Under {!Fifo}, events added at the instant of the last pop (fiber
    resumes, mostly) bypass the heap through a FIFO lane; the pop order is
    exactly the single-heap order (DESIGN.md section 13). The queue keeps
    no reference to a value once it is popped. *)

type schedule =
  | Fifo  (** ties pop in insertion order (the default) *)
  | Lifo  (** ties pop in reverse insertion order *)
  | Seeded_shuffle of int
      (** ties pop in a pseudo-random order derived purely from the seed
          and each entry's insertion index ({!Rng.rank}) — the same seed
          always yields the same permutation *)

val pp_schedule : Format.formatter -> schedule -> unit
(** ["fifo"], ["lifo"] or ["shuffle:<seed>"]. *)

type 'a t

val create : ?schedule:schedule -> unit -> 'a t
(** An empty queue with the insertion counter at zero, breaking ties
    according to [schedule] (default {!Fifo}). *)

val is_empty : 'a t -> bool
(** [true] iff no events are pending. *)

val length : 'a t -> int
(** Number of pending events. Test-only: an observer. *)

val add : 'a t -> time:float -> 'a -> unit
(** Insert an event at the given simulated time. *)

val next_time : 'a t -> float
(** Time of the earliest event. Raises [Invalid_argument] on an empty
    queue. With {!take}, pops without building an option or a pair. *)

val take : 'a t -> 'a
(** Remove the earliest event (the one {!next_time} reports) and return its
    value. Raises [Invalid_argument] on an empty queue. *)

val due_by : 'a t -> float -> bool
(** [due_by t time] is [true] iff some pending event is due at or before
    [time]. When none is due at or before the current instant, an event
    added now would be the very next one popped under every {!schedule}. *)

val skip : 'a t -> unit
(** Consume one insertion index without adding an event: what {!add}
    followed at once by {!take} of the same event leaves behind. Every
    later event keeps the [(time, rank, insertion index)] key it would
    have had, so an event that is run in place instead of queued leaves
    the order of all others unchanged. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)
