(** FIFO byte-rate server.

    Models a device that serves requests one at a time at a fixed byte rate
    with a fixed per-operation overhead — the building block for disks and
    network interfaces. Concurrent callers queue in FIFO order, so
    contention shows up as queueing delay, exactly like a saturated disk or
    NIC. *)

type t

val create :
  Engine.t -> rate:float -> ?per_op:float -> ?seek:float -> unit -> t
(** [create engine ~rate ~per_op ~seek ()] serves requests at [rate]
    bytes/second, charging an additional [per_op] seconds (default 0) of
    service time per operation, plus [seek] seconds (default 0) whenever a
    request belongs to a different {e stream} than the previous one — the
    head-repositioning model that makes a disk fast for one sequential
    writer and slow when interleaving many. Requires [rate > 0]. *)

val process : t -> ?stream:int -> int -> unit
(** [process t ~stream bytes] blocks the calling fiber until the server has
    served this request: queueing delay plus [per_op + bytes/rate], plus
    [seek] if [stream] differs from the previously served stream.
    Requests without a [stream] never pay or trigger seeks. *)

val process_many : t -> ops:int -> int -> unit
(** [process_many t ~ops bytes] serves a batch of [ops] back-to-back
    operations totalling [bytes] as one FIFO occupancy, without a stream
    (no seek). *)

val process_then : t -> int -> (unit -> unit) -> unit
(** [process_then t bytes k] is the callback form of {!process} (without
    a stream) for event-driven stages: it queues for the server, serves
    the request with the same service time and accounting, and continues
    with [k] where {!process} would return, at the same insertion indexes
    (see [Engine.after] and [Engine.Semaphore.acquire_then]). Like
    [Engine.continue_now], it must be the last action of a callback. *)

val seeks : t -> int
(** Stream switches served so far. Test-only: an observer. *)

val busy_time : t -> float
(** Total simulated seconds the server has spent serving requests. *)

val ops : t -> int
(** Operations served so far. Test-only: an observer. *)

val bytes_served : t -> int
(** Total bytes served so far. Test-only: an observer. *)
