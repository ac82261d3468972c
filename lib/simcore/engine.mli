(** Discrete-event simulation engine.

    The engine runs cooperative {e fibers} implemented with OCaml 5 effect
    handlers: a fiber is an ordinary OCaml function that may block on
    {!sleep}, {!Ivar.read}, {!Mailbox.recv}, {!Semaphore.acquire} or
    {!Fiber.await}; blocking suspends the underlying continuation and hands
    control back to the scheduler, which advances simulated time.

    Scheduling is deterministic: events execute in time order, with
    same-timestamp ties broken by the engine's {!Event_queue.schedule}
    policy (insertion order by default), and all randomness flows through
    the engine's {!rng}. Running the same simulation twice with the same
    seed and schedule produces identical traces.

    Fibers can be {e cancelled} (individually or per {!Group}), which models
    fail-stop machine crashes: a cancelled fiber's pending blocking operation
    raises {!Cancelled} inside the fiber, unwinding it. *)

type t
(** A simulation engine instance. *)

type fiber
(** A lightweight simulated process. *)

exception Cancelled
(** Raised inside a fiber when it is cancelled while blocked. *)

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber dies with an unhandled exception
    (other than {!Cancelled}); carries the fiber name and the exception. *)

exception Audit_failure of string * string list
(** Raised out of {!run} when teardown audits are enabled and a registered
    check reports violations; carries the first violation's subject and
    every violation of that check rendered by {!pp_violation}. *)

val create : ?seed:int -> ?schedule:Event_queue.schedule -> unit -> t
(** [create ~seed ()] is a fresh engine at time [0.0]. Default seed 42.
    [schedule] selects the event queue's same-timestamp tie-break policy
    (default {!Event_queue.Fifo}, which is bit-identical to the historical
    insertion-order behavior); see {!Event_queue.schedule}. *)

val now : t -> float
(** Current simulated time in seconds. *)

val derived_rng : t -> string -> Rng.t
(** [derived_rng t name] is a private random stream keyed by the engine
    seed and [name] — a pure function of the two, so it does not depend
    on how same-timestamp ties were broken. Identity-keyed streams are what keep simulation {e results}
    independent of the tie-break {!schedule}: with order-keyed streams a
    schedule change silently reassigns randomness between components
    (found by [blobcr_lint fuzz], see DESIGN.md section 13). *)

val current_fiber : t -> fiber option
(** The fiber whose body is executing right now, or [None] between events
    (or inside a plain {!at} callback). Observability layers use this to
    attribute work to a logical thread; it never changes scheduling. *)

val run : t -> unit
(** Process events until the queue is empty. Raises {!Fiber_failure} as soon
    as any fiber dies with an unhandled exception. Fibers still blocked when
    the queue drains are simply left suspended (use {!blocked_fibers} to
    detect unexpected deadlock in tests). *)

val run_until : t -> float -> unit
(** [run_until t limit] processes all events with time [<= limit] and then
    advances the clock to [limit]. Test-only: a test rig hook. *)

val step : t -> bool
(** Execute a single event. Returns [false] when the queue is empty. *)

val live_fibers : t -> int
(** Number of fibers spawned and not yet finished. Test-only: an observer. *)

val blocked_fibers : t -> int
(** Number of live fibers currently suspended on a blocking operation.
    Test-only: an observer. *)

(** {1 Teardown audits}

    Stateful components (disk images, mirrors, version managers, ...)
    register a check of their own structural invariants at creation. When
    audits are enabled, {!run} runs every registered check once the event
    queue drains and raises {!Audit_failure} on the first one that reports
    violations. *)

type violation = { subject : string; invariant : string; detail : string }
(** One broken invariant: the structure it was found in, the invariant's
    name and what was seen. *)

val violation : subject:string -> string -> ('a, Format.formatter, unit, violation) format4 -> 'a
(** [violation ~subject invariant fmt ...] is a violation whose detail is
    formatted from [fmt]. *)

val pp_violation : Format.formatter -> violation -> unit
(** Renders [subject: invariant "name" violated: detail], the invariant's
    name quoted. *)

val register_audit : t -> (unit -> violation list) -> unit
(** Attach an invariant check to this engine's teardown audit; it returns
    [[]] when clean. Cheap, and safe to call even when audits are
    disabled. *)

val audit : t -> violation list
(** Run every registered check now, in registration order. *)

val audit_count : t -> int
(** Number of registered checks. *)

val audits_enabled : unit -> bool
(** Whether {!run} performs teardown audits. Defaults to the [BLOBCR_AUDIT]
    environment variable (unset, empty or ["0"] means disabled).
    Test-only: a test rig hook. *)

val set_audits_enabled : bool -> unit
(** Override the audit toggle for the current process (tests use this to
    force audits on regardless of the environment).
    Test-only: a test rig hook. *)

val sleep : t -> float -> unit
(** [sleep t d] blocks the calling fiber for [d] simulated seconds.
    Must be called from inside a fiber of [t]. Requires [d >= 0.]. When
    the timer fires with no other event due at that instant, the fiber
    continues inside the timer's event instead of being queued again (the
    in-place rule, see {!continue_now}); the order of execution is the
    same either way. *)

val suspend : (('a -> bool) -> unit) -> 'a
(** [suspend register] blocks the calling fiber and calls [register resume]
    before control returns to the scheduler; the building block of every
    blocking primitive below. The first [resume v] schedules the fiber to
    continue with [v] at the current time and returns [true]. A resumer is
    one-shot: calling it again, or after the fiber was cancelled, returns
    [false] and does nothing, so resources can skip dead waiters. Must be
    called from inside a fiber.
    Test-only: outside this module, tests build blocking primitives from it. *)

val yield : t -> unit
(** Reschedule the calling fiber at the current time, letting other ready
    fibers run first. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules plain callback [f] (not a fiber; it must not
    block) at absolute simulated [time]. *)

(** {1 Callback stages}

    An event-driven stage is a chain of plain callbacks that takes the
    same steps, at the same insertion indexes, as a fiber running the
    corresponding blocking calls would: {!post} is a spawn or a resume,
    {!continue_now} an immediate resume, {!after} a {!sleep} and
    {!Semaphore.acquire_then} a {!Semaphore.acquire}. A stage costs no
    fiber, so it is counted by neither {!live_fibers} nor
    {!blocked_fibers}. *)

val post : t -> (unit -> unit) -> unit
(** [post t f] schedules callback [f] at the current time (one insertion
    index, like a fiber resume). *)

val continue_now : t -> (unit -> unit) -> unit
(** [continue_now t f] runs [f] here when no other event is due at or
    before the current time, and {!post}s it otherwise. An event added now
    with nothing else due is the next event popped under every schedule,
    so running it in place consumes its insertion index and changes no
    order. It must therefore be the last action of a callback; called
    from a fiber it always posts. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t d f] runs callback [f] [d] simulated seconds from now, with
    the insertion indexes of a fiber's {!sleep}: a timer event at
    [now + d] that continues with [f] through {!continue_now}. Requires
    [d >= 0.]. *)

module Group : sig
  (** A cancellation group: all fibers spawned into the group can be killed
      together. Used to model a machine crash taking down every process
      hosted on it. *)

  type engine := t
  type t

  val create : unit -> t
  (** An empty group. *)

  val cancel : engine -> t -> unit
  (** Cancel every member fiber (idempotent). *)

  val live : t -> int
  (** Number of member fibers not yet finished. Test-only: an observer. *)
end

module Fiber : sig
  type engine := t
  type t = fiber

  type outcome =
    | Completed
    | Cancelled_outcome
    | Failed of exn

  val spawn : engine -> ?name:string -> ?group:Group.t -> (unit -> unit) -> t
  (** Start a new fiber at the current simulated time. May be called from
      inside or outside a fiber. *)

  val name : t -> string
  (** The name given at {!spawn} (default ["fiber"]). *)

  val id : t -> int
  (** A number unique to the fiber within its engine. *)

  val cancel : t -> unit
  (** Request cancellation. If the fiber is blocked, it is resumed with
      {!Cancelled} at the current time; if it is running or not yet started,
      it is cancelled at its next blocking point (or before starting). A
      cancelled sleeper's timer stays queued but, when popped, neither
      wakes anything nor moves {!now}. *)

  val is_finished : t -> bool
  (** Whether the fiber has completed, failed or been cancelled.
      Test-only: an observer. *)

  val await : t -> outcome
  (** Block until the fiber finishes and return how it finished. *)

  val join : t -> unit
  (** Like {!await} but returns unit; a [Failed] outcome raises
      {!Fiber_failure}. A cancelled fiber joins normally. *)
end

val all : t -> ?name:string -> (unit -> unit) list -> unit
(** [all t fs] runs each thunk in its own fiber and blocks until every one
    has finished (a fork–join barrier). Must be called from inside a
    fiber. *)

module Ivar : sig
  (** Write-once synchronization variable. *)

  type engine := t
  type 'a t

  val create : engine -> 'a t
  (** An empty ivar. *)

  val fill : 'a t -> 'a -> unit
  (** Wakes all readers. Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled, then return the value. *)

  val is_filled : 'a t -> bool
  (** Whether {!fill} has run. *)
end

module Mailbox : sig
  (** Unbounded FIFO message queue between fibers. *)

  type engine := t
  type 'a t

  val create : engine -> 'a t
  (** An empty mailbox. *)

  val send : 'a t -> 'a -> unit
  (** Enqueue a message, handing it to the oldest live receiver if any.
      Never blocks. *)

  val recv : 'a t -> 'a
  (** Block until a message is available. Messages are delivered in FIFO
      order; competing receivers are served in arrival order. *)

  val length : 'a t -> int
  (** Number of messages queued and not yet received. Test-only: an
      observer. *)
end

module Semaphore : sig
  (** Counting semaphore; the building block for FIFO resources such as
      disks and CPU cores. *)

  type engine := t
  type t

  val create : engine -> int -> t
  (** A semaphore holding the given number of tokens (at least 0). *)

  val acquire : t -> unit
  (** Take a token, blocking until one is free. Waiters are served in
      arrival order. *)

  val acquire_then : t -> (unit -> unit) -> unit
  (** [acquire_then s f] is the callback form of {!acquire}: it takes a
      token and continues with [f] through {!continue_now} when one is
      free, or queues [f] as a waiter that a {!release} {!post}s. Like
      {!continue_now}, it must be the last action of a callback. *)

  val release : t -> unit
  (** Return a token, waking the oldest waiter if any. *)

  val with_held : t -> (unit -> 'a) -> 'a
  (** Acquire, run, release (also on exception). *)

  val available : t -> int
  (** Number of free tokens. Test-only: an observer. *)
end
