(** Dedup commit-path baseline (beyond the paper): a gang of instances
    dirties dup-heavy or fully unique content over the same base image
    and commits concurrently, with the content-addressed index enabled
    and disabled. Measures bytes physically shipped, repository growth,
    simulated commit latency, and clean-rewrite suppression; the restored
    dirty regions are digested so callers can assert dedup never changes
    the bytes read back. *)

open Simcore

type point = {
  dedup : bool;
  workload : string;  (** "dup-heavy" | "unique" *)
  instances : int;
  dirty_bytes_per_instance : int;
  commit_time : float;  (** mean simulated seconds, first commit *)
  rewrite_time : float;  (** mean simulated seconds, clean-rewrite commit *)
  shipped_bytes : int;
  deduped_bytes : int;
  suppressed_bytes : int;
  repository_bytes : int;  (** repository growth over the base image *)
  dedup_hits : int;
  image_digest : int64;  (** combined digest of every restored dirty region *)
}

val run : Scale.t -> progress:(string -> unit) -> point list
(** One point per (workload × dedup on/off). *)

val tables_of : point list -> (string * Stats.table) list
(** Render already-collected points as the named result tables. *)

val point_json : point -> string
(** One point's entry in the BENCH_dedup.json document. *)
