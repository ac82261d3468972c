(** Cluster network model.

    Hosts are connected through a switched fabric. Each host has a full-
    duplex NIC modelled as two FIFO byte-rate servers (uplink and downlink);
    an optional fabric rate server models core oversubscription. A transfer
    is segmented and pipelined through uplink → (fabric) → downlink, so a
    host receiving from many senders saturates at its downlink rate and
    many parallel transfers between disjoint host pairs proceed at full
    rate — the contention behaviour that dominates checkpoint storms.

    All blocking calls must run inside an engine fiber. *)

open Simcore

type t

type host
(** A network endpoint. *)

type config = {
  bandwidth : float;  (** NIC rate, bytes/second, both directions. *)
  latency : float;  (** one-way propagation delay, seconds *)
  segment_size : int;  (** pipelining granularity, bytes *)
  fabric_bandwidth : float option;
      (** aggregate core capacity; [None] = non-blocking fabric *)
}

val default_config : config
(** The paper's Grid'5000 graphene values: 117.5 MB/s, 0.1 ms latency,
    256 KiB segments, non-blocking fabric. *)

val create : Engine.t -> config -> t
(** A fresh network with no hosts. *)

val config : t -> config
(** The configuration passed at creation. *)

val add_host : t -> name:string -> host
(** Attach a new host (its own uplink/downlink NIC pair) to the fabric. *)

val host_name : host -> string
(** The name passed to {!add_host}. *)

val host_id : host -> int
(** Dense id in attachment order, usable as a stream id. *)

val hosts : t -> host list
(** Every host, in attachment order. *)

val transfer : t -> src:host -> dst:host -> int -> unit
(** [transfer t ~src ~dst bytes] blocks until the payload has fully arrived
    at [dst]. Local transfers ([src == dst]) cost nothing. The calling
    fiber pushes each segment through [src]'s uplink; the fabric and
    [dst]'s downlink serve it in a receiving stage made of engine
    callbacks, which belongs to no fiber: if the sender is cancelled,
    segments it has already handed over still cross the downlink. *)

val message : t -> src:host -> dst:host -> unit
(** Small control message: propagation latency only. *)

val bytes_sent : host -> int
(** Total bytes this host has put on its uplink. *)

val bytes_received : host -> int
(** Total bytes delivered to this host's downlink. Test-only: an observer. *)

val uplink : host -> Rate_server.t
(** The host's sending NIC server (occupancy and byte counters).
    Test-only: an observer. *)

val downlink : host -> Rate_server.t
(** The host's receiving NIC server. Test-only: an observer. *)

val fabric : t -> Rate_server.t option
(** The shared core server, when [fabric_bandwidth] is set.
    Test-only: an observer. *)

(** {1 Injected link faults}

    Hooks for the fault injector: both are deterministic functions of the
    simulation clock, so a replayed run degrades and heals at exactly the
    same instants. *)

val degrade : t -> factor:float -> until:float -> unit
(** Scale effective bandwidth down by [factor] (>= 1) until the absolute
    simulation time [until]: every segment pays [factor - 1] extra
    serialization delays on the sender side. A new call replaces the
    previous degradation. *)

val partition : t -> side:(host -> bool) -> until:float -> unit
(** Cut the network along [side] until absolute time [until]: transfers
    and messages crossing the cut stall and complete after the heal. A new
    call replaces the active partition, and its stalled traffic re-checks
    against the new cut. Transfers already past their initial handshake
    are not interrupted. *)
