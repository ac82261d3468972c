(** Retention policies for snapshot chains.

    A policy decides, per blob, which published versions of a chain stay
    and which the compactor may retire. Evaluation is pure and
    deterministic: the same version list and policy always produce the
    same plan. The latest version of a blob is never retirable — a blob
    always stays restorable from its tip. *)

type policy =
  | Keep_all  (** retire nothing — compaction disabled *)
  | Keep_last of int
      (** keep the newest [k] versions; [k <= 1] (including the
          [keep_last_0] edge case) clamps to keeping only the latest *)
  | Thin_exponential of { base : int }
      (** exponential thinning: every version younger than [base] is
          kept, then one survivor per power-of-[base] age bucket
          [[base^i, base^(i+1))]. A chain shorter than [base] is kept
          whole. [base] must be >= 2. *)

type plan = {
  keep : int list;  (** surviving versions, ascending *)
  retire : int list;  (** versions the policy retires, ascending *)
}

val policy_to_string : policy -> string
(** ["keep-all"], ["keep-last-k"] or ["thin-b"] (table series labels). *)

val plan : policy -> versions:int list -> latest:int -> plan
(** [plan policy ~versions ~latest] partitions [versions] (the blob's
    live version numbers, any order) into keep and retire sets. [latest]
    is always kept. Raises [Invalid_argument] on a
    [Thin_exponential] base < 2 or a negative [Keep_last]. *)
