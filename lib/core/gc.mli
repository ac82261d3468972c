(** Transparent snapshot garbage collection.

    The extension the paper announces as future work: "reclaim the space
    used by disk-snapshots that are obsoleted by newer checkpoints".
    Retention drops all but the newest [keep_last] versions of every BLOB;
    a mark-and-sweep over the remaining snapshot trees then deletes every
    chunk no live snapshot references. Structural sharing makes this safe:
    a chunk survives as long as {e any} retained version of {e any} BLOB
    (including clones) still points to it. *)

open Blobseer

type report = {
  versions_dropped : int;
  chunks_deleted : int;
  bytes_reclaimed : int;
  index_entries_dropped : int;
      (** dedup-index digests no surviving version references, removed by
          reconciliation before the sweep *)
}

val collect : Client.t -> ?pins:(int * int) list -> keep_last:int -> unit -> report
(** Requires [keep_last >= 1]. Runs as a background activity: no simulated
    time is charged. [pins] are (blob, version) pairs retention must never
    drop, whatever their age: the supervisor's live rollback targets and
    versions the scrubber is repairing ({!Blobseer.Scrubber.pins}).
    Without pins, a collection racing a
    rollback could prune the very snapshot the supervisor needs next. *)
