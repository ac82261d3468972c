(** BlobSeer data provider: stores chunks on the local disk of a compute
    node and serves them over the network. *)

open Simcore
open Netsim
open Storage

type t

val create :
  Engine.t ->
  Net.t ->
  host:Net.host ->
  disk:Disk.t ->
  request_overhead:float ->
  name:string ->
  t
(** Stand up a provider on [host] persisting to [disk].
    [request_overhead] is charged per served request. *)

val name : t -> string
(** The name passed at creation. *)

val host : t -> Net.host
(** The host the provider serves from. *)

val disk : t -> Disk.t
(** The local disk chunks are persisted on. Test-only: an observer. *)

val store : t -> Content_store.t
(** The in-memory content plane (white-box access for tests and
    audits). *)

val is_alive : t -> bool
(** [false] once {!fail} has been called. *)

val fail : t -> unit
(** Fail-stop: the provider stops serving and its locally stored data is
    considered lost (the paper's failure model). *)

val write_chunk : t -> from:Net.host -> Payload.t -> Content_store.chunk_id
(** Ship the payload from [from] to the provider and persist it. Blocks for
    network transfer, service overhead and disk write.
    Raises {!Types.Provider_down} if the provider is dead. *)

val read_chunk : t -> to_:Net.host -> Content_store.chunk_id -> Payload.t
(** Fetch a chunk back to [to_]. Raises {!Types.Provider_down} if dead, and
    [Not_found] if the chunk id is unknown. *)

val corrupt_chunk : t -> salt:int -> Content_store.chunk_id -> bool
(** Silently overwrite the stored copy with deterministic garbage derived
    from [salt], leaving the recorded digest stale. Returns [false] (no-op)
    if the provider is dead or the chunk unknown. Costs nothing: it models
    media corruption, not an operation. *)

val verify_chunk : t -> Content_store.chunk_id -> bool
(** Local integrity check: recompute the stored payload's digest and compare
    to the one recorded at write time. [false] for dead providers and
    unknown chunks. Costs nothing (used by audits and the scrubber's local
    pass; network-visible verification happens in the client). *)

val delete_chunk : t -> Content_store.chunk_id -> unit
(** Drop one reference; frees disk space when the chunk dies. No service
    cost is charged (reclamation is a background activity). *)

val chunk_count : t -> int
(** Live chunks currently stored. Test-only: an observer. *)

val stored_bytes : t -> int
(** Logical bytes of live chunks currently stored. *)
