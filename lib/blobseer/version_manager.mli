(** Version manager: the serialization point of BlobSeer.

    Assigns version numbers to published snapshots and keeps, per BLOB, the
    mapping version → segment-tree root. Publication is serialized (one at
    a time) but cheap, which is how BlobSeer sustains many concurrent
    writers: the heavy data and metadata traffic is decentralized and only
    this small step funnels through one node.

    Publication reconciles concurrent writers: a publish based on a stale
    version is merged leaf-by-leaf onto the current latest tree, so
    non-overlapping concurrent writes both survive. *)

open Simcore
open Netsim

type t
type tree = Types.chunk_desc Segment_tree.t

type blob_info = { blob_id : int; capacity : int; stripe_size : int }

type crash_point =
  | Before_apply  (** intent journaled, no state touched yet *)
  | Mid_apply  (** version root inserted, [latest] not yet bumped *)

val create : Engine.t -> Net.t -> host:Net.host -> publish_cost:float -> t
(** A version manager on [host] with no blobs; [publish_cost] is charged
    per {!publish} on top of the round-trip. It registers
    its density audit with the engine's teardown audits
    ({!Engine.audit}). *)

val create_blob : t -> from:Net.host -> capacity:int -> stripe_size:int -> blob_info
(** Registers a new BLOB whose version 0 is entirely unwritten. *)

val blob_info : t -> int -> blob_info
(** Lookup by blob id. Raises [Not_found] for unknown ids. Cost-free. *)

val blob_ids : t -> int list
(** Every registered blob id, ascending. Cost-free. *)

val latest : t -> from:Net.host -> int -> int
(** Latest published version number of a blob (0 = empty initial version
    unless the blob was cloned). *)

val get_tree : t -> from:Net.host -> blob:int -> version:int -> tree
(** Raises [Not_found] for unpublished versions. *)

val publish : t -> from:Net.host -> blob:int -> base:int -> tree -> int
(** [publish t ~from ~blob ~base tree] publishes a snapshot derived from
    version [base] and returns its version number. If other versions were
    published since [base], the update is merged onto the latest tree.

    When a dedup index is attached ({!set_dedup_index}), every descriptor
    the writer changed relative to [base] counts one logical reference on
    its digest — strictly after the journal commit, so crashed-and-rolled-
    back publications never count. *)

val set_dedup_index : t -> Dedup_index.t -> unit
(** Attach the deployment's dedup index for publication-time reference
    counting (wired by [Client.deploy]). *)

(** Durable mutations in commit order, as announced to an attached
    journal-shipping replica ({!set_on_commit}). Records are emitted
    strictly after the journal commit of the operation, so a crashed and
    rolled-back mutation is never announced. *)
type commit_record =
  | Published of { blob : int; version : int }
      (** a snapshot publication landed; [version] is the minted number *)
  | Cloned of { src_blob : int; version : int; new_blob : int }
      (** a clone registered [new_blob] from [src_blob]'s [version] *)
  | Blob_created of { blob : int; capacity : int; stripe_size : int }
      (** a fresh empty blob was registered via [create_blob] *)
  | Repaired of { blob : int; version : int; index : int }
      (** the scrubber swapped leaf [index]'s descriptor in place
          (digest-preserving — a logical no-op for replication) *)

val set_on_commit : t -> (commit_record -> unit) -> unit
(** Install the commit hook. The callback runs synchronously inside the
    committing operation and therefore must not block — enqueue and
    return (the replication tail ships asynchronously). At most one hook;
    a second call replaces the first. *)

val fail : t -> unit
(** Fail-stop the service (site-disaster injection): every subsequent
    operation raises {!Types.Service_crashed} until {!restart}. Unlike an
    armed crash, pending journal intents are left as they are. *)

val clone : t -> from:Net.host -> blob:int -> version:int -> blob_info
(** New BLOB whose version 0 is the given snapshot of the source blob —
    shares all chunks, diverges independently (design principle 3.1.3). *)

val retire_version : t -> blob:int -> version:int -> tree
(** Compactor retire path: atomically move one version from the live set
    to the retired record and return its tree (the caller releases dedup
    references and sweeps chunks only it referenced). Cost-free — the
    compactor journals the surrounding transaction itself. Raises
    [Invalid_argument] when [version] is the blob's latest (the tip is
    never retirable) or is not live, and {!Types.Service_crashed} when
    the service is down. *)

val retired_versions : t -> blob:int -> int list
(** Versions retired ({!retire_version}) over the blob's lifetime,
    ascending. Cost-free audit view. *)

val unsafe_forget_version : t -> blob:int -> version:int -> unit
(** Test-only: remove a version root {e without} recording it as retired
    — seeds the lost-version defect the invariant audit must catch. *)

val versions : t -> blob:int -> int list
(** Published (non-dropped) version numbers, ascending. *)

val retention_plan : t -> blob:int -> policy:Retention.policy -> Retention.plan
(** Evaluate a retention policy against the blob's live versions.
    Cost-free. *)

val iter_live_trees : t -> (blob:int -> version:int -> tree -> unit) -> unit
(** All live (blob, version) roots — the compactor's mark roots — in
    ascending (blob, version) order, so iteration order is deterministic. *)

(** {1 Crash consistency}

    Every publication, clone and repair journals an intent before mutating
    state and commits it after. {!arm_crash} plants a one-shot crash at the
    given point of the next mutation: the service raises
    {!Types.Service_crashed} and stops serving until {!restart} rolls the
    pending intent back — after which the old state is intact and the
    operation can be retried. *)

val is_alive : t -> bool
(** [false] between a planted crash firing and {!restart}. *)

val arm_crash : t -> crash_point -> unit
(** Plant a one-shot crash at the given point of the next mutation
    (fault-injection hook). *)

val restart : t -> unit
(** Journal recovery: roll back every pending intent (removing any
    half-inserted version root or half-registered clone), then resume
    serving. Idempotent. *)

val replace_desc : t -> blob:int -> version:int -> index:int -> Types.chunk_desc -> int
(** Scrubber repair path: journaled in-place swap of one leaf's chunk
    descriptor in one published version — no new version number is minted.
    Returns the number of fresh tree nodes created (for the caller's
    metadata commit). Raises {!Types.Service_crashed} if the service is
    down. *)

val journal_pending : t -> int
(** Intents journaled but neither committed nor rolled back; 0 whenever the
    service is quiescent (audited at teardown). *)

val recovered_intents : t -> int
(** Total intents rolled back by {!restart} over the service's lifetime. *)

(** {1 Cost-free views}

    Read-only accessors; no simulated network or service cost is
    charged. *)

val peek_latest : t -> int -> int
(** Like {!latest} but free of simulated cost. *)

val peek_tree : t -> blob:int -> version:int -> tree
(** Like {!get_tree} but free of simulated cost. Raises [Not_found] for
    unpublished versions. *)
