(** Result series collection and rendering for experiments.

    An experiment produces one or more named series of [(x, y)] points
    (e.g. checkpoint time versus number of instances, one series per
    approach). [Stats] renders them as aligned text tables — the same rows
    the paper's figures plot — and as CSV. *)

type series

val series : string -> series
(** [series label] is a fresh, empty series. *)

val add : series -> x:float -> y:float -> unit
(** Append one [(x, y)] point. *)

val y_at : series -> x:float -> float option
(** The [y] recorded for exactly this [x], if any. Test-only: an observer. *)

val group :
  ?order:('k -> 'k -> int) ->
  key:('p -> 'k) ->
  label:('k -> string) ->
  x:('p -> float) ->
  y:('p -> float) ->
  'p list ->
  series list
(** [group ~key ~label ~x ~y points] splits [points] into one series per
    distinct [key] (structural equality), labelled [label key], holding
    that key's [(x p, y p)] points in list order. Series come in the order
    their keys first appear, stably sorted by [order] when given; no hash
    table is iterated, so the result is deterministic. *)

type table

val table : title:string -> x_label:string -> y_label:string -> series list -> table
(** Bundle series under a title and axis labels, ready to render. *)

val render : table -> string
(** Aligned text table: one row per distinct [x], one column per series. *)

val to_csv : table -> string
(** The same rows as {!render}, comma-separated with a header line.
    Test-only: shows tests what {!write_csv} writes. *)

val write_csv : dir:string -> name:string -> table -> string
(** Write [to_csv] under [dir], which must exist; returns the path. *)

(** Basic descriptive statistics used by tests and the experiments. *)

val mean : float list -> float
(** Arithmetic mean; [0.] for the empty list. *)
