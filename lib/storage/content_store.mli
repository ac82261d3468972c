(** In-memory chunk content store.

    Holds the payload of every stored chunk. Chunks are immutable, and
    each has one owner: the data provider that stored it removes it.
    Structural sharing across snapshots is expressed by descriptors naming
    the same chunk id. The store tracks logical bytes held, which is what
    the storage-utilization experiments report. *)

open Simcore

type t
type chunk_id = int

val create : unit -> t
(** An empty store. *)

val put : t -> Payload.t -> chunk_id
(** Store a payload under a fresh id. *)

val get : t -> chunk_id -> Payload.t
(** Raises [Not_found] for dead or unknown ids. *)

val remove : t -> chunk_id -> unit
(** Drop a live chunk. Raises [Not_found] for dead or unknown ids. *)

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
