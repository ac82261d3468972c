(** Deterministic, seed-driven fault injection.

    The injector schedules a {e script} of failure events — crash-stop host
    failures, data/metadata-provider fail-stops, transient disk I/O errors
    and link degradation/partitions — against an embedder through a record
    of {!handlers}. Scripts are either written explicitly or generated from
    an MTBF-parameterized profile with a seeded {!Simcore.Rng}, so the same
    seed reproduces the exact failure timeline.

    The injector is deliberately generic: it names targets by small integer
    indices and leaves their resolution (which host, which provider, which
    disk) to the handlers, so the embedding layer can make crashes track a
    migrating deployment deterministically. *)

open Simcore

exception Injected_error of string
(** A transient, retryable I/O error planted by the injector. Recovery
    paths match on this constructor — never on [Failure] strings. *)

(** One failure to inject. Integer targets are indices into whatever space
    the handlers resolve them over (compute nodes, providers, ...). *)
type action =
  | Crash_host of int  (** fail-stop a machine and everything on it *)
  | Fail_provider of int  (** fail-stop one data provider *)
  | Fail_metadata of int  (** fail-stop one metadata provider *)
  | Transient_disk of { target : int; ops : int }
      (** the target's next [ops] disk operations raise {!Injected_error} *)
  | Degrade_links of { factor : float; duration : float }
      (** scale effective network bandwidth down by [factor] (>= 1) *)
  | Partition of { group : int list; duration : float }
      (** cut the group's hosts off from the rest until healed *)
  | Silent_corruption of { provider : int; chunk : int }
      (** flip bytes of one stored replica without any error signal; [chunk]
          is an ordinal the handler resolves against the provider's stored
          chunks (mod count), so scripts stay valid whatever is stored *)
  | Crash_commit of { point : int }
      (** crash the version manager at crash point [point] (0 = before any
          state mutation, 1 = mid-apply) of its next publication/clone *)
  | Crash_compaction of { point : int }
      (** crash the compactor at crash point [point] (0 = before-flatten,
          1 = mid-retire, 2 = after-retire) of its next compaction
          transaction *)
  | Crash_service of int
      (** fail-stop a background-service host: 0 = scrubber, 1 = compactor
          (fail-stop until its owner restarts it), 2 = compactor armed
          crash (the handler rotates the crash point) — a no-op for
          embedders without the named service *)
  | Crash_site
      (** fail-stop an entire site — every compute node, the version
          manager and the metadata providers of the active repository go
          down together (the disaster-recovery trigger; a no-op for
          embedders without a standby site) *)

type event = { at : float; action : action }
(** [at] is relative to injector start (seconds). *)

type script = event list

val pp_action : Format.formatter -> action -> unit
(** One-line rendering of an action, e.g. ["crash-host 3"].
    Test-only: a printer for test output. *)

val pp_event : Format.formatter -> event -> unit
(** ["t=+<at>s <action>"] — for traces and test transcripts. *)

val of_profile :
  rng:Rng.t ->
  mtbf:float ->
  horizon:float ->
  hosts:int ->
  providers:int ->
  ?weights:int * int * int * int ->
  ?corrupt_weight:int ->
  ?service_weight:int ->
  unit ->
  script
(** Generate a failure timeline: inter-arrival times are exponential with
    mean [mtbf], starting at 0 and stopping at [horizon].
    Each event picks its class by the [weights] quadruple
    [(crash, provider, transient, degrade)] (default [(5, 3, 2, 1)]),
    extended by [corrupt_weight] (default 0) for {!Silent_corruption} and
    [service_weight] (default 0) for {!Crash_service} draws targeting the
    background-service hosts (scrubber/compactor), and a uniform target
    below [hosts] / [providers]. A transient-disk draw fails 1–3
    operations; a degrade draw slows links 4× for 10 s. All randomness
    is drawn from [rng]: the same generator state yields the same
    script. *)

(** Callbacks through which events reach the simulated platform. Handlers
    must be total — applying a fault to an already-failed target is a
    no-op, not an error. *)
type handlers = {
  crash_host : int -> unit;
  fail_provider : int -> unit;
  fail_metadata : int -> unit;
  transient_disk : target:int -> ops:int -> unit;
  degrade_links : factor:float -> duration:float -> unit;
  partition : group:int list -> duration:float -> unit;
  silent_corruption : provider:int -> chunk:int -> unit;
  crash_commit : point:int -> unit;
  crash_compaction : point:int -> unit;
  crash_service : int -> unit;
  crash_site : unit -> unit;
}

val null_handlers : handlers
(** Ignores every event (useful for dry runs and tests of the scheduler). *)

type t

val start : Engine.t -> script:script -> handlers:handlers -> t
(** Spawn the injector fiber: it walks the script in time order (events at
    equal times apply in script order), sleeping between events and
    applying each through the handlers. May be called from inside or
    outside a fiber; event times are relative to the moment of the call. *)

val stop : t -> unit
(** Cancel the injector; pending events are dropped. *)

val applied : t -> event list
(** Events applied so far, in application order, with [at] rewritten to the
    absolute simulation time of application. *)

val with_retries : Engine.t -> ?retries:int -> label:string -> (unit -> 'a) -> 'a
(** [with_retries engine ~label f] runs [f], retrying up to [retries]
    (default 3) additional times when it raises {!Injected_error} — the
    transient-fault recovery discipline. Waits [0.01 s * 2^attempt]
    between attempts and emits a trace line per retry. Any other
    exception, including {!Engine.Cancelled}, passes
    through untouched. *)
