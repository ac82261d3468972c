(** Persistent segment trees over a blob's chunk space.

    This is BlobSeer's versioning metadata structure: the offset space of a
    BLOB is divided into fixed-size chunks, and each snapshot version is the
    root of a balanced binary tree whose leaves describe the chunk stored
    for that range (or nothing, for never-written ranges). Updating a range
    rebuilds only the paths from the affected leaves to the root, so
    successive versions share all untouched subtrees — this is what the
    paper calls {e shadowing}, and what makes incremental disk-image
    snapshots cheap in both space and metadata traffic.

    The structure is polymorphic in the leaf descriptor so it can be tested
    in isolation; BlobSeer instantiates it with chunk locations. *)

type 'a t

val create : chunks:int -> 'a t
(** A tree over [chunks] leaves, all initially empty. Requires
    [chunks >= 1]. *)

val chunks : 'a t -> int
(** Number of addressable leaves. Test-only: an observer. *)

val get : 'a t -> int -> 'a option
(** [get t i] is the descriptor at leaf [i], if ever set in this version's
    history. Requires [0 <= i < chunks t]. *)

val set_range : 'a t -> start:int -> 'a option array -> 'a t * int
(** [set_range t ~start leaves] is a new version with
    [leaves.(k)] at position [start + k] (a [None] entry punches the leaf
    back to empty), together with the number of fresh tree nodes the update
    allocated — the amount of metadata a commit must push to the metadata
    providers. The original tree is unchanged. *)

val fold_set : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all non-empty leaves in increasing index order. *)

val live_nodes : 'a t -> int
(** Number of distinct nodes reachable from this root (for sharing
    diagnostics and metadata accounting). Test-only: an observer. *)

val shared_nodes : 'a t -> 'a t -> int
(** Number of physically shared nodes between two versions — evidence of
    shadowing in tests. *)

val audit : subject:string -> chunks:int -> 'a t -> Simcore.Engine.violation list
(** Partition audit: the tree's terminal nodes (occupied leaves and shared
    empty runs) tile the padded power-of-two chunk space with no gaps or
    overlaps, occupied leaves span exactly one chunk, and the tree
    addresses [chunks] leaves. Violations name [subject]. *)

val diff_leaves : 'a t -> 'a t -> (int * 'a option * 'a option) list
(** [(i, in_old, in_new)] for every leaf whose descriptor differs, cheap on
    shared subtrees (O(changed · log n)). *)

val merkle_digest : digest:('a -> int64) -> 'a t -> int64
(** Merkle root of the tree: leaves hash to [mix (digest value)], interior
    nodes combine their children's digests with the node span. The digest is
    memoized {e in the node} by physical identity, so shadow-shared subtrees
    are hashed at most once across all versions that share them — successive
    versions pay O(changed · log n), not O(n). Contract: a given tree family
    (trees that may share nodes) must always be digested with the same
    [digest] function; use {!merkle_digest_with} for state-dependent
    functions. Versions agree on content iff their roots agree (64-bit
    collisions aside). *)

val merkle_digest_with :
  memo:(int, int64) Hashtbl.t -> digest:('a -> int64) -> 'a t -> int64
(** Same digest values as {!merkle_digest}, but memoized in the caller-held
    [memo] (keyed by node id) instead of in the node — for digest functions
    that depend on external state (e.g. storage health), where in-node
    memoization would go stale. Reuse one [memo] per consistent snapshot of
    that state and discard it afterwards. *)

val merkle_counters : unit -> int * int
(** [(hashes, reuses)]: monotonic counts of Merkle node digests computed
    fresh vs served from a memo, across all trees since process start —
    deltas measure the incremental-digest win. *)
