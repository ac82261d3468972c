(** Local disk model.

    A single spindle serving reads and writes FIFO at a sequential rate with
    a per-operation positioning overhead. Matches the paper's testbed
    ("local disk storage of 278 GB, access speed ~55 MB/s"). *)

open Simcore

type t

exception Full of { disk : string; need : int; capacity : int }
(** Raised when a write or reservation would exceed capacity: [need] is the
    total the operation would have used. Typed so recovery code can match
    on it instead of on [Failure] strings. *)

val create :
  Engine.t ->
  ?rate:float ->
  ?per_op:float ->
  ?seek:float ->
  ?capacity:int ->
  ?name:string ->
  unit ->
  t
(** Defaults: 55 MiB/s, 0.5 ms per operation, 8 ms seek on stream switch,
    278 GiB capacity. *)

val read : t -> ?stream:int -> int -> unit
(** Block for the service time of reading [bytes]. [stream] identifies the
    logical access stream: consecutive requests from the same stream are
    sequential; switching streams pays a seek.
    Raises {!Faults.Injected_error} while a transient fault is armed. *)

val write : t -> ?stream:int -> int -> unit
(** Block for the service time of writing [bytes]. Accounts the bytes
    against capacity. Raises {!Full} when the disk is full and
    {!Faults.Injected_error} while a transient fault is armed. *)

val free : t -> int -> unit
(** Return previously written bytes to the free pool (deletion). *)

val reserve : t -> int -> unit
(** Account bytes against capacity without charging service time (e.g.
    sparse-extension bookkeeping). Raises {!Full} when full. *)

val inject_transient : t -> ops:int -> unit
(** Arm [ops] transient faults: each of the next [ops] read/write calls
    raises {!Faults.Injected_error} before touching the media (no service
    time, no state change). Fault-injection hook. *)

val armed_faults : t -> int
(** Transient faults still armed. Test-only: an observer. *)

val used : t -> int
(** Bytes currently accounted against capacity. Test-only: an observer. *)

val bytes_read : t -> int
(** Total bytes read over the disk's lifetime. *)

val bytes_written : t -> int
(** Total bytes written over the disk's lifetime. *)

val busy_time : t -> float
(** Simulated seconds spent serving requests. *)
