(** Digest-tax micro-bench (beyond the paper): an instance rewrites its
    whole working region every epoch — only a fraction of it actually
    changed — and COMMITs. Measures the bytes digested during the commit
    itself (the [blob.write] digest tax the dirty-region digest cache
    kills), the epoch-total digest work, simulated commit time and bytes
    shipped, swept over image size x dirty fraction x dedup on/off plus a
    digest-cache-off baseline. *)

open Simcore

type point = {
  image_bytes : int;
  dirty_fraction : float;
  dedup : bool;
  digest_cache : bool;
  commit_time : float;  (** simulated seconds, measured epoch-two commit *)
  commit_digest_bytes : int;  (** bytes digested during the commit itself *)
  total_digest_bytes : int;  (** bytes digested over rewrite + commit *)
  chunks_digested : int;
  chunks_cached : int;
  chunks_skipped : int;
  shipped_bytes : int;
  deduped_bytes : int;
  suppressed_bytes : int;
}

val run : Scale.t -> progress:(string -> unit) -> point list
(** One point per (image size x dirty fraction x config); configs are
    dedup on/off with the digest cache on, plus dedup-on/cache-off. *)

val tables_of : point list -> (string * Stats.table) list
(** Render already-collected points as the named result tables. *)

val point_json : point -> string
(** One point's entry in the BENCH_digest.json document. *)
