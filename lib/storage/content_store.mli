(** In-memory chunk content store with reference counting.

    Holds the payload of every stored chunk. Chunks are immutable;
    structural sharing across snapshots is expressed by multiple references
    to the same chunk id. The store tracks logical bytes held, which is what
    the storage-utilization experiments report. *)

open Simcore

type t
type chunk_id = int

val create : unit -> t
(** An empty store. *)

val put : t -> Payload.t -> chunk_id
(** Store a payload with reference count 1. *)

val get : t -> chunk_id -> Payload.t
(** Raises [Not_found] for dead or unknown ids. *)

val decr_ref : t -> chunk_id -> unit
(** Drops the chunk when the count reaches zero. *)

val refs : t -> chunk_id -> int
(** 0 for dead/unknown chunks. Test-only: an observer. *)

val recorded_digest : t -> chunk_id -> int64
(** The {!Simcore.Payload.digest} recorded when the chunk was stored. Silent
    corruption ({!corrupt}) mutates the payload but not this record, so a
    scrub comparing the two detects the damage. Raises [Not_found] for
    dead/unknown ids. *)

val corrupt : t -> chunk_id -> Payload.t -> unit
(** Replace the stored payload in place, keeping the originally recorded
    digest — models silent media corruption. Raises [Not_found] for
    dead/unknown ids. *)

val mem : t -> chunk_id -> bool
(** Whether the id refers to a live chunk. *)

(** Live chunk ids, ascending (compactor recovery sweep enumeration). *)
val ids : t -> chunk_id list

val chunk_count : t -> int
(** Number of live chunks. *)

val total_bytes : t -> int
(** Sum of payload lengths of live chunks. *)
