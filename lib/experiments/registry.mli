(** Registry of reproducible experiments, one entry per paper figure or
    table. The CLI drives experiments through this interface, and it is
    the only path to an experiment's outputs: rendered tables, CSV files
    and the [BENCH_<id>.json] points document. *)

open Simcore

type result = {
  tables : (string * Stats.table) list;  (** named result tables, in render order *)
  points : string option;
      (** the [BENCH_<id>.json] document of the raw points, for experiments
          that yield one (dedup, digest, precopy) *)
}

type t = {
  id : string;  (** e.g. ["fig2a"] *)
  paper_ref : string;  (** e.g. ["Figure 2(a)"] *)
  description : string;
  run : Scale.t -> progress:(string -> unit) -> result;
}

val all : t list
(** fig2a, fig2b, fig4, fig5a, fig6, table1, the experiments beyond the
    paper, and the ablation studies abl-prefetch, abl-stripe,
    abl-replication and abl-incremental. Figures measured in one sweep
    share an entry: fig2a and fig2b also emit the fig3a and fig3b restart
    tables, fig5a also emits the fig5b storage table. *)

val find : string -> t option
(** Look up an experiment by id, e.g. ["fig2a"]. *)

val select : string list -> (t list, string) Stdlib.result
(** Resolve command-line names to experiments. A name is an id or a
    group: [all] (every experiment), [paper] (fig2a, fig2b, fig4, fig5a,
    fig6 and table1, the six sweeps that emit all nine paper artifacts) or
    [ablations] (the four [abl-*]). A group expands in registry order; the
    result follows the names' order and lists each experiment once.
    [Error] describes the first unknown name. *)

val render : ?csv_dir:string -> result -> string
(** The rendered text tables of a result; with [csv_dir], also write each
    table as CSV there and note the path after it. *)

val execute :
  t -> Scale.t -> observe:bool -> progress:(string -> unit) -> result * Obs.Record.run option
(** [run]; with [observe], under an observability capture that also
    returns the recorded spans, metric snapshot and labelled tracks (one
    per simulated sweep point). *)

val write_points : t -> result -> string option
(** Write the result's points document, if it has one, to
    [BENCH_<id>.json] in the working directory; returns the path. *)

val render_observability : Obs.Record.run -> string
(** Render a captured run as the flat metrics table followed by the
    checkpoint and restart critical-path phase breakdowns (when the run
    contains [ckpt] / [restart] root spans). *)
