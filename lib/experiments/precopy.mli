(** Live-checkpoint sweep: pre-copy rounds × dirty rate × interval.

    One BlobCR instance runs a guest writer dirtying its working set at a
    controlled rate while the driver takes periodic checkpoints as
    stop-the-world ("stw"), live with the final delta committed under
    suspend ("live-sync"), or live with the final delta shipped in the
    background after the resume ("live-bg"). Reported per cell: the
    longest stall the writer observed at its own pause points (the
    application-perceived stop-the-world window), mean checkpoint
    completion time, bytes shipped (pre-copy overship included),
    frozen-chunk copy-on-write traffic and the writer throughput actually
    sustained. *)

type point = {
  interval : float;
  dirty_mbps : float;
  rounds : int;
  mode : string;
  suspend_max : float;
  ckpt_latency : float;
  shipped_bytes : int;
  cow_bytes : int;
  achieved_mbps : float;
}

val run_point :
  Scale.t ->
  interval:float ->
  dirty_mbps:float ->
  rounds:int ->
  mode:string ->
  unit ->
  point
(** One run on a fresh cluster: [mode] is ["stw"], ["live-sync"] or
    ["live-bg"]; [rounds] is the pre-copy budget (ignored for ["stw"]).
    Test-only: a test rig hook. *)

val run : Scale.t -> progress:(string -> unit) -> point list
(** The full grid from the scale's precopy axes: one stop-the-world anchor
    per (interval, dirty-rate) cell plus both live modes across the
    pre-copy round budgets. *)

val tables_of : point list -> (string * Simcore.Stats.table) list
(** Named result tables over precomputed points: ["precopy-suspend"],
    ["precopy-latency"], ["precopy-shipped"], ["precopy-interference"],
    ["precopy-throughput"]. *)

val point_json : point -> string
(** One point's entry in the BENCH_precopy.json document. *)
