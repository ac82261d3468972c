(** Runtime invariant auditor over live simulator state.

    BlobCR's correctness argument rests on snapshot lineage staying
    consistent: qcow2 refcounts (the paper's baseline), segment-tree
    shadowing/cloning in BlobSeer (§3.1.2–3.1.3) and COW diffs in the
    mirroring module (§3.2). Each audit below validates one of those
    structures and returns a typed list of violations — empty means clean.

    Components register themselves with their engine as audit subjects at
    creation; {!install} wires this module in as the engine's subject
    auditor, so when audits are enabled ([BLOBCR_AUDIT=1] or
    {!Engine.set_audits_enabled}) every {!Engine.run} checks all live
    subjects at teardown and raises {!Engine.Audit_failure} on the first
    violation. Linking this module anywhere installs the auditor. *)

open Simcore
open Blobseer
open Vdisk

type violation = { subject : string; invariant : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit
(** ["<subject>: <invariant>: <detail>"] — for audit reports. *)

val audit_qcow2 : Qcow2.t -> violation list
(** Refcount consistency: every physical cluster's refcount equals its
    references from the live table plus all snapshot tables; every
    referenced cluster holds data; no data cluster is orphaned. *)

val audit_segment_tree : subject:string -> chunks:int -> 'a Segment_tree.t -> violation list
(** The tree's terminal spans partition the padded chunk space with no
    gaps or overlaps, occupied leaves span exactly one chunk, and the tree
    addresses [chunks] leaves. *)

val audit_version_manager : Version_manager.t -> violation list
(** Per blob: live and retired versions are disjoint and together tile a
    dense range (retention punches holes, it never loses versions),
    [latest] is the newest stored version, and every stored tree passes
    {!audit_segment_tree} for the blob's chunk count. *)

val audit_mirror : Mirror.t -> violation list
(** COW and digest-cache audit: dirty ⊆ present, digest-cache keys ⊆
    present, and — on a deterministic sample of at most ~64 entries — every
    cached digest equals the digest recomputed from the chunk's current
    local bytes (the digest-cache coherence check). *)

val audit_client : Client.t -> violation list
(** Durability audit over a BlobSeer deployment: replicas of every live
    chunk descriptor sit on pairwise distinct hosts; the digest recorded
    provider-side at write time matches the descriptor's for every live,
    present replica (metadata agreement — payloads are deliberately not
    re-hashed, so injected corruption awaiting scrub does not fail
    teardown); and the version-manager and metadata journals hold no
    pending intents. Journal quiescence is only required of services
    still alive to recover them — a fail-stopped site abandoned by a
    failover legitimately holds its intents forever. *)

val audit_engine : Engine.t -> violation list
(** Audit every subject registered with the engine. *)

val install : unit -> unit
(** Install this module as {!Engine}'s subject auditor (idempotent; also
    performed as a linking side effect). *)
