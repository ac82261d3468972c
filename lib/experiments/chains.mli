(** Snapshot-chain retention and compaction sweep (beyond the paper).

    Grows a snapshot chain to a configurable depth on both sides of the
    comparison — BlobSeer versioned blobs maintained by the background
    {!Blobseer.Compactor}, and qcow2 incremental-export delta chains
    maintained by {!Vdisk.Qcow2.collapse_chain} — then measures what the
    maintenance plane buys: restart latency from the newest snapshot,
    physical-over-logical read amplification of that restart, bytes
    reclaimed from retired history, and the interference compaction
    inflicts on foreground checkpoint epochs.

    The dirty pattern is deliberately skewed: each epoch rewrites a
    rotating quarter of the image's {e first half} with epoch-unique
    content, so the second half lives only in the oldest snapshot — the
    worst case for an uncollapsed qcow2 chain (every such cluster walks
    the whole chain, one table probe per delta level) and the
    representative case for retention (old versions pin chunks the tip
    no longer references). *)

open Blobcr

(** {1 BlobSeer side} *)

type bs_outcome = {
  restart_s : float;  (** timed full read of the latest version *)
  restart_digest : int64;  (** content digest of the restored image *)
  read_amp : float;  (** physical bytes read / logical bytes, restart *)
  epoch_mean_s : float;  (** mean foreground epoch latency *)
  reclaimed_bytes : int;  (** physical bytes the compactor deleted *)
  live_versions : int list;  (** live version numbers after settling *)
  retired_versions : int list;  (** retired version numbers *)
  cstats : Blobseer.Compactor.stats option;  (** [None] = compaction off *)
  engine : Simcore.Engine.t;  (** for invariant audits by the caller *)
}

val bs_run :
  Scale.t -> ?policy:Blobseer.Retention.policy -> depth:int -> unit -> bs_outcome
(** One deterministic BlobSeer run: an initial full image write, [depth]
    dirty epochs each followed by a synchronous compactor pass (when
    [policy] is given — omitting it disables compaction), two settling
    passes so the deferred sweep completes, then a timed restart read
    from a different node. Test-only: a test rig hook. *)

(** {1 Chaos harness}

    The schedule-fuzz surface: the same BlobSeer run under an injected
    fault script (compaction crash points, background-service crashes,
    transient disk errors). Foreground writes retry transients; the
    compactor is restarted and re-scanned after every crash, and the run
    ends with a no-fault settle so the observed outcome is the policy's
    fixed point — schedule-independent even though retry counts and
    crash recoveries are not. *)

type chaos = {
  c_outcome : bs_outcome;  (** the settled end state *)
  c_injected : Faults.event list;  (** faults actually applied *)
}

val chaos_run :
  Scale.t ->
  script:(Cluster.t -> Blobseer.Compactor.t -> Faults.script) ->
  depth:int ->
  unit ->
  chaos
(** Like {!bs_run} with compaction on under
    [Keep_last scale.chains_keep_last] and [script] (built once the
    cluster and compactor exist) injected while the epochs run. *)

(** {1 qcow2 side} *)

type q_outcome = {
  q_restart_s : float;  (** timed full read through the backing chain *)
  q_restart_digest : int64;  (** content digest of the restored image *)
  q_read_amp : float;  (** physical bytes read / logical bytes, restart *)
  q_epoch_mean_s : float;  (** mean foreground epoch latency (dirty + export) *)
  q_reclaimed_bytes : int;  (** retired delta-file bytes deleted by collapses *)
  q_chain_levels : int;  (** levels of the final chain *)
}

(** {1 Tables} *)

val tables : Scale.t -> progress:(string -> unit) -> (string * Simcore.Stats.table) list
(** The sweep: chain depth x maintenance on/off across both sides.
    Returns [chains-restart] (restart seconds vs depth),
    [chains-readamp] (read amplification vs depth), [chains-reclaimed]
    (megabytes reclaimed vs depth) and [chains-interference] (mean
    foreground epoch seconds, compaction on vs off). *)
