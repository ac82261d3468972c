(** Table builders for every figure and table of the paper's evaluation.

    Each function runs the underlying experiment(s) at the given scale and
    returns render-ready {!Simcore.Stats.table}s whose rows/series are the
    ones the paper plots. [progress] receives one line per completed
    measurement point. *)

open Simcore

type progress = string -> unit

val fig2_3 :
  Scale.t -> buffer:int -> tag:string -> progress:progress -> Stats.table * Stats.table
(** One synthetic sweep at the given buffer size; returns
    (Figure 2: checkpoint time vs #instances,
     Figure 3: restart time vs #instances). [tag] is "a"/"b". *)

val fig4 : Scale.t -> progress:progress -> Stats.table
(** Snapshot size per VM instance for both buffer sizes, all five
    approaches (single-instance runs). *)

val fig5 : Scale.t -> progress:progress -> Stats.table * Stats.table
(** Four successive checkpoints of one instance, 200 MB buffer:
    (5a: per-checkpoint completion time, 5b: cumulative storage). *)

val fig6 : Scale.t -> progress:progress -> Stats.table
(** CM1 checkpoint completion time vs number of processes. *)

val table1 : Scale.t -> progress:progress -> Stats.table
(** CM1 per-disk-snapshot size for the four disk-snapshot approaches. *)
