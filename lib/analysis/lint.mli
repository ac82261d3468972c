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
      the simulator runs on one domain;
    - [unused-export]: a [val] of a library [.mli] (top-level, or in a
      [module X : sig ... end] and then judged with [X] as its module)
      that no other compilation unit under [lib], [bin], [bench],
      [examples] or [test] uses, or that only tests use while its doc
      comment lacks the tag [Test-only:], or that carries the tag although
      a non-test unit uses it. A use is [Module.name] in code, or a bare
      [name] in a file that opens [Module] ([open], [let open ... in],
      [Module.( ... )]);
    - [unused-option]: an optional parameter of such a [val] that no call
      site passes ([~name] or [?name] among the labels applied to the val;
      a val handed on as a value passes them all), that only tests pass
      while the doc lacks [Test-only [?name]:] (or the val's own tag), or
      that every call site passes as [~name], so its default never runs;
      and a field of a [type config] or [type params] record that only
      tests set ([f =] or a punned [f] after [{], [;] or [with]). Call
      sites are counted under the same five directories, in the val's own
      implementation too but not at its definition.

    Comments and string-literal contents are ignored, so rule names and
    banned tokens may appear freely in documentation. A finding is
    suppressed by a [(* lint: allow <rule> ... *)] pragma in a comment on
    the offending line; text after the rule ids serves as justification,
    and an [unused-export] or [unused-option] pragma without one
    suppresses nothing. *)

type finding = { rule : string; file : string; line : int; message : string }

val scan_source : file:string -> string -> finding list
(** Run all content rules over one compilation unit's source text. [file]
    is only used to label findings.
    Test-only: the pure entry point the rule tests use. *)

val missing_mli : string list -> finding list
(** The missing-mli rule over a list of paths: each [.ml] whose [.mli] is
    not in the list (pure). Test-only: a test rig hook. *)

val scan_tree : root:string -> string list -> finding list
(** Scan the given directories (relative to [root]) recursively: content
    rules over every [.ml], plus [missing-mli] for directories under
    [lib] and, when [lib] is among them, [unused-export] and
    [unused-option] over [lib]'s interfaces with users from [lib], [bin],
    [bench], [examples] and [test]. Findings are sorted by file, line and rule; directories whose
    name starts with ['.'] or ['_'] are skipped. *)

type interface_val = {
  name : string;
  parent : string option;  (** the [X] of the [module X : sig] it sits in, if nested *)
  decl_line : int;  (** 1-based line of the [val] keyword *)
  doc : string option;  (** the doc comment's source lines, if it has one *)
  hidden : bool;  (** inside an odoc [(**/**)] stop section *)
}

val interface_vals : string -> interface_val list
(** The [val]s of an interface's source text, in order, each with its doc
    comment: the [(** ... *)] ending on the line directly above, else the
    closest one below it and before the next item. A [module X : sig ...
    end] is entered, and the vals in it have [parent = Some "X"]. *)

val pp_finding : Format.formatter -> finding -> unit
(** ["file:line: [rule] message"] — file:line is clickable in editors. *)
