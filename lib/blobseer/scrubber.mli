(** Background scrub & repair: the repository's self-healing loop.

    A scrubber walks every live (blob, version) segment tree, verifies each
    chunk's replica set against the digest the writer recorded in the
    descriptor, and repairs what it finds:

    - {e corrupt} copies (payload digest ≠ recorded digest, or recorded ≠
      descriptor digest) are deleted and replaced;
    - {e missing} copies (provider dead, or chunk lost with its machine)
      are re-replicated from a surviving good copy onto live providers on
      hosts that hold no copy yet.

    Repairs follow a quorum-write policy: the new replica set is published
    (an in-place, journaled descriptor swap — no new version number) only
    when good + freshly written copies reach the majority quorum
    ⌈(replication+1)/2⌉; otherwise the chunk is counted a quorum failure
    and retried next pass. A chunk with {e zero} good copies is
    unrepairable — its (blob, version) is reported so the supervisor can
    pick an older rollback target.

    Before enumerating a version's chunks, a pass compares its Merkle
    root on the descriptor side with one over a storage-health leaf
    function; a version whose roots agree is verified healthy wholesale
    and skipped. Detection power is unchanged (any unhealthy replica set
    poisons the storage root), and a per-pass memo walks shadow-shared
    subtrees once per pass rather than once per referencing version.

    Structurally shared leaves are repaired once per pass (memoized by
    descriptor identity) and every referencing site is rewritten to the
    same new descriptor, so sharing survives repair.

    All scheduling is deterministic: same seed and same fault script give
    the same scrub/repair event log. *)

open Netsim

type t

type config = { interval : float  (** seconds between background passes *) }

type event =
  | Scan_started of { at : float; pass : int }
  | Repaired of {
      at : float;
      blob : int;
      version : int;
      index : int;
      bytes : int;  (** logical chunk size *)
      added : int;  (** fresh copies written *)
      dropped : int;  (** dead/corrupt replicas removed from the descriptor *)
    }
  | Quorum_failed of { at : float; blob : int; version : int; index : int; good : int }
  | Unrepairable of { at : float; blob : int; version : int; index : int }
  | Scan_finished of {
      at : float;
      pass : int;
      checked : int;
      repaired : int;
      unrepairable : int;
    }

val pp_event : Format.formatter -> event -> unit
(** One-line rendering for traces and test transcripts. *)

type stats = {
  passes : int;
  chunks_checked : int;  (** sites visited across all passes *)
  repairs : int;  (** descriptors rewritten with a healthy replica set *)
  repair_bytes : int;  (** bytes re-replicated (repair traffic) *)
  quorum_failures : int;
  unrepairable : int;
      (** the sum of the [unrepairable] counts of the {!Scan_finished}
          events: a pass cancelled before it finished adds nothing *)
  merkle_clean_versions : int;
      (** versions skipped wholesale by the Merkle precheck (their occupied
          leaves still count into [chunks_checked]) *)
}

val create : Client.t -> home:Net.host -> ?config:config -> unit -> t
(** [home] is the host the scrubber runs on; metadata commits for repaired
    descriptors are charged from it. [config] defaults to a 5 s interval.
    Every pass runs the Merkle precheck; it has no switch. *)

val scan : t -> unit
(** One synchronous scrub pass. Blocks for the simulated cost of repair
    copies and metadata commits (verification itself is provider-local and
    free). Safe to call while the background fiber is stopped or between
    its passes. *)

val start : t -> unit
(** Spawn the background fiber: one {!scan} every [config.interval]
    seconds. No-op if already running. *)

val stop : t -> unit
(** Cancel the background fiber and wait until a pass in progress has
    unwound. Call it from a fiber other than the scrubber's own. *)

val version_ok : t -> blob:int -> version:int -> bool
(** [false] iff the most recent pass found an unrepairable (or
    quorum-failed, or unpublishable) chunk in this snapshot — the
    supervisor's rollback-target filter. *)

val bad_sites : t -> (int * int) list
(** The [(blob, version)] pairs {!version_ok} rejects, ascending: the
    sites the most recent pass found an unrepairable, quorum-failed or
    unpublishable chunk in. *)

val stats : t -> stats
(** Cumulative pass/repair counters. *)

val events : t -> event list
(** Chronological scrub/repair log — the replay-determinism subject. *)
