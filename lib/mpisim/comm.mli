(** Message-passing communicator (the mpich2 stand-in).

    A communicator binds a fixed number of ranks to VM instances; ranks
    exchange messages over the simulated network between their hosts (the
    fixed-process-count, message-passing application model of Section 2.2).

    The checkpoint-relevant entry point is {!drain_channels}: the
    coordinated checkpointing protocol's first step, which stops new sends
    and waits until every in-flight message has been received, so that no
    in-transit state needs saving. *)

open Simcore
open Netsim

type t
type endpoint

exception Draining
(** Raised by {!send} while a {!drain_channels} marker is active — the
    coordinated protocol forbids sends past the marker. Typed so recovery
    code can distinguish it from genuine failures. *)

val create : Engine.t -> Net.t -> size:int -> t
(** A communicator with [size] ranks, initially unattached. *)

val attach : t -> rank:int -> vm:Vmsim.Vm.t -> endpoint
(** Bind a rank to the VM it runs in. Each rank must be attached exactly
    once before communicating. *)

val send : endpoint -> dst:int -> bytes:int -> unit
(** Blocking send: transfers [bytes] to the destination rank's host and
    enqueues the message. Raises {!Draining} if draining is in progress
    (the protocol forbids sends past the marker). *)

val recv : endpoint -> src:int -> int
(** Blocking receive of the next message from [src]; returns its size. *)

val barrier : endpoint -> unit
(** Dissemination barrier: O(log n) latency rounds. *)

val in_flight : t -> int
(** Messages sent but not yet received. Test-only: an observer. *)

val drain_channels : endpoint -> unit
(** Coordinated-checkpoint step 1: every rank calls this; a marker is
    propagated (no further sends allowed), all pending messages are
    received by their targets, and the call returns once the communicator
    is globally quiescent. Sends are allowed again afterwards. *)
