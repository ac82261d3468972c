(** Determinism and correctness lint over the OCaml source tree.

    A self-contained line/token-level scanner (no ppx, no compiler-libs)
    that flags constructs known to corrupt this reproduction's two core
    guarantees — byte-for-byte replay determinism and snapshot-lineage
    consistency (see DESIGN.md §8):

    - [hashtbl-order]: [Hashtbl.iter]/[Hashtbl.fold] whose result is not
      explicitly sorted nearby — hash iteration order is arbitrary;
    - [ambient-random]: stdlib [Random] instead of [Simcore.Rng];
    - [wall-clock]: [Unix.gettimeofday], [Unix.time], [Sys.time];
    - [obj-magic]: the unsafe [Obj] family;
    - [poly-compare]: bare polymorphic [compare] in a module handling
      floats (NaN breaks ordering);
    - [missing-mli]: library [.ml] without a companion [.mli];
    - [domains]: [Domain], [Atomic], [Mutex], [Condition] or [Thread] —
      the simulator runs on one domain, and only a pure fold may run off
      it.

    Comments and string-literal contents are ignored, so rule names and
    banned tokens may appear freely in documentation. A finding is
    suppressed by a [(* lint: allow <rule> ... *)] pragma in a comment on
    the offending line; text after the rule ids serves as justification. *)

type finding = { rule : string; file : string; line : int; message : string }

val scan_source : file:string -> string -> finding list
(** Run all content rules over one compilation unit's source text. [file]
    is only used to label findings. *)

val missing_mli : dir:string -> ml:string list -> mli:string list -> finding list
(** The missing-mli rule over one directory's basenames (pure, for
    tests). *)

val scan_tree : root:string -> string list -> finding list
(** Scan the given directories (relative to [root]) recursively: content
    rules over every [.ml], plus [missing-mli] for directories under
    [lib]. Findings are sorted by file, line and rule; directories whose
    name starts with ['.'] or ['_'] are skipped. *)

val pp_finding : Format.formatter -> finding -> unit
(** ["file:line: [rule] message"] — file:line is clickable in editors. *)
