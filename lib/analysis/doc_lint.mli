(** Documentation lint: keeps the written word in sync with the code.

    Three rule families, all reported as {!Lint.finding}s so the CLI can
    render them uniformly:

    - [mli-doc]: every [val] in a library [.mli], top-level or in a
      [module X : sig ... end], must carry a doc comment — either a [(** ... *)] ending on the line directly
      above the declaration, or a trailing one after it. Sections fenced
      by the odoc stop comment [(**/**)] are exempt (internal plumbing).
    - [md-link]: relative links in the operator-facing markdown
      (README.md, DESIGN.md, EXPERIMENTS.md, docs/) must point at files
      that exist, and [#fragment] links must name a real heading in the
      target (GitHub anchor rules). External [http(s)://] links are not
      checked.
    - [changes-log]: CHANGES.md must hold exactly one line per PR,
      numbered sequentially from 1 — the contract the next session relies
      on to know what is already done. Between them, a line may start
      with [FOUND: ] (a fault seen and left open) or [MENDED: ] (one a
      later PR fixed); such lines take no PR number.

    Like {!Lint}, this is a self-contained text-level scanner: no ppx, no
    compiler-libs, no markdown parser. *)

val scan_repo : root:string -> Lint.finding list
(** Run all three rule families over a repository checkout: [mli-doc]
    on every [.mli] under [root/lib], [md-link] on README.md, DESIGN.md,
    EXPERIMENTS.md and [docs/*.md], and [changes-log] on CHANGES.md.
    Findings are sorted by file, line and rule. *)
