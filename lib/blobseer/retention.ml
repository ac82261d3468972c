type policy =
  | Keep_all
  | Keep_last of int
  | Thin_exponential of { base : int }

type plan = {
  keep : int list;
  retire : int list;
}

let pp_policy ppf = function
  | Keep_all -> Fmt.pf ppf "keep-all"
  | Keep_last k -> Fmt.pf ppf "keep-last-%d" k
  | Thin_exponential { base } -> Fmt.pf ppf "thin-%d" base

let policy_to_string p = Fmt.str "%a" pp_policy p

(* Which versions the policy keeps. Ages are measured down the chain from
   [latest] (age 0), so the policy is stable as the chain grows: a
   version's bucket only ever moves outward.

   Thinning keeps the youngest *live* version of each power-of-base age
   bucket (not exact power-of-base ages): on a chain already thinned by
   earlier passes the surviving member of a bucket rarely sits at the
   bucket's floor age, and it must stay the bucket's survivor rather than
   be retired for having drifted off the anchor. *)
let policy_keeps policy ~latest ~versions version =
  match policy with
  | Keep_all -> true
  | Keep_last k ->
      (* keep_last_0 clamps to 1: the latest version is never retirable. *)
      let k = max 1 k in
      latest - version < k
  | Thin_exponential { base } ->
      let age = latest - version in
      if age < base then true
      else begin
        let bucket a =
          let rec go b i = if b * base <= a then go (b * base) (i + 1) else i in
          go base 0
        in
        let mine = bucket age in
        (* Youngest live member of my bucket: no live version of the same
           bucket with a strictly smaller age. *)
        not
          (List.exists
             (fun v ->
               let a = latest - v in
               a >= base && a < age && bucket a = mine)
             versions)
      end

let plan policy ~versions ~latest =
  (match policy with
  | Keep_last k when k < 0 -> invalid_arg "Retention.plan: negative keep_last"
  | Thin_exponential { base } when base < 2 ->
      invalid_arg "Retention.plan: thinning base must be >= 2"
  | _ -> ());
  let versions = List.sort_uniq Int.compare versions in
  let keep, retire =
    List.partition
      (fun version -> version = latest || policy_keeps policy ~latest ~versions version)
      versions
  in
  { keep; retire }
