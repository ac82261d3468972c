(** Mutable sparse byte space.

    A growable address space where unwritten ranges read as zeros, backed by
    fixed-size blocks of {!Payload.t}. Used as the in-memory content plane
    of disk images and caches (timing is charged by their owners; this
    structure is free of simulated cost).

    Blocks live in a growable array indexed by block number ([offset /
    block_size]), so a store's footprint is proportional to its highest
    written block, not to the number of blocks written: it suits dense,
    bounded address spaces such as a chunk cache indexed by chunk. A
    block counts as materialized from its first write on, whatever the
    bytes written, zeros included. *)

type t

val create : ?block_size:int -> unit -> t
(** Default block size 64 KiB. *)

val write : t -> offset:int -> Payload.t -> unit
(** Store the payload's bytes at [offset], materializing blocks as
    needed. A block written in part becomes {!Payload.splice} of its old
    content, so rewriting a block's bytes with the same segments keeps its
    segments and owes its digest. *)

val read : t -> offset:int -> len:int -> Payload.t
(** The [len] bytes at [offset]; unwritten ranges read as zeros. *)

val written_bytes : t -> int
(** Number of bytes covered by materialized blocks (block-granular).
    Test-only: an observer. *)

val clear : t -> unit
(** Drop every block, returning the space to all-zeros and releasing the
    block array. *)
