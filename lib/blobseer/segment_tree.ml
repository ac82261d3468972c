type 'a node =
  | Empty of { espan : int; mutable edig : int64 option }
  | Leaf of { id : int; value : 'a; mutable mdig : int64 option }
  | Branch of {
      id : int;
      span : int;
      left : 'a node;
      right : 'a node;
      mutable mdig : int64 option;
    }

type 'a t = { chunks : int; root : 'a node }

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let span = function
  | Empty { espan; _ } -> espan
  | Leaf _ -> 1
  | Branch { span; _ } -> span

(* Canonical empty nodes, shared across all trees, so untouched space costs
   no metadata. *)
let empty_table : (int, Obj.t) Hashtbl.t = Hashtbl.create 64

let empty_node espan : 'a node =
  match Hashtbl.find_opt empty_table espan with
  | Some node -> (Obj.obj node : 'a node) (* lint: allow obj-magic — see above *)
  | None ->
      let node = Empty { espan; edig = None } in
      (* lint: allow obj-magic — Empty carries no 'a, sharing is sound *)
      Hashtbl.add empty_table espan (Obj.repr node);
      node

let rec pow2_ge n = if n <= 1 then 1 else 2 * pow2_ge ((n + 1) / 2)

let create ~chunks =
  if chunks < 1 then invalid_arg "Segment_tree.create: chunks must be >= 1";
  { chunks; root = empty_node (pow2_ge chunks) }

let chunks t = t.chunks

let get t i =
  if i < 0 || i >= t.chunks then invalid_arg "Segment_tree.get: index out of range";
  let rec go node i =
    match node with
    | Empty _ -> None
    | Leaf { value; _ } -> Some value
    | Branch { left; right; _ } ->
        let half = span left in
        if i < half then go left i else go right (i - half)
  in
  go t.root i

let set_range t ~start leaves =
  let len = Array.length leaves in
  if start < 0 || start + len > t.chunks then invalid_arg "Segment_tree.set_range";
  if len = 0 then (t, 0)
  else begin
    let created = ref 0 in
    let alloc_leaf value =
      incr created;
      Leaf { id = fresh_id (); value; mdig = None }
    in
    let alloc_branch span left right =
      incr created;
      Branch { id = fresh_id (); span; left; right; mdig = None }
    in
    (* [update node lo] rewrites the subtree covering [lo, lo + span node). *)
    let rec update node lo =
      let sp = span node in
      if start + len <= lo || lo + sp <= start then node
      else if sp = 1 then (
        match leaves.(lo - start) with
        | Some value -> alloc_leaf value
        | None -> empty_node 1)
      else
        let left, right =
          match node with
          | Branch { left; right; _ } -> (left, right)
          | Empty _ -> (empty_node (sp / 2), empty_node (sp / 2))
          | Leaf _ -> assert false
        in
        let left' = update left lo in
        let right' = update right (lo + (sp / 2)) in
        if left' == left && right' == right then node
        else (
          match (left', right') with
          | Empty _, Empty _ -> empty_node sp
          | _ -> alloc_branch sp left' right')
    in
    let root = update t.root 0 in
    ({ t with root }, !created)
  end

let fold_set f t init =
  let rec go node lo acc =
    match node with
    | Empty _ -> acc
    | Leaf { value; _ } -> if lo < t.chunks then f lo value acc else acc
    | Branch { left; right; _ } ->
        let half = span left in
        go right (lo + half) (go left lo acc)
  in
  go t.root 0 init

let node_ids t =
  let ids = Hashtbl.create 64 in
  let rec go node =
    match node with
    | Empty _ -> ()
    | Leaf { id; _ } -> Hashtbl.replace ids id ()
    | Branch { id; left; right; _ } ->
        if not (Hashtbl.mem ids id) then begin
          Hashtbl.replace ids id ();
          go left;
          go right
        end
  in
  go t.root;
  ids

let live_nodes t = Hashtbl.length (node_ids t)

let shared_nodes a b =
  let ids_a = node_ids a in
  let ids_b = node_ids b in
  (* lint: allow hashtbl-order — commutative count *)
  Hashtbl.fold (fun id () acc -> if Hashtbl.mem ids_a id then acc + 1 else acc) ids_b 0

(* Partition audit: the terminal spans of a version tree (occupied leaves
   and shared empty runs) must tile the padded power-of-two chunk space
   contiguously — a hole or overlap means shadowing produced a corrupt
   version (paper §3.1.2). *)
let audit ~subject ~chunks t =
  let v invariant fmt = Simcore.Engine.violation ~subject invariant fmt in
  let rec terminals node lo acc =
    match node with
    | Empty { espan; _ } -> (lo, espan, false) :: acc
    | Leaf _ -> (lo, 1, true) :: acc
    | Branch { left; right; _ } -> terminals right (lo + span left) (terminals left lo acc)
  in
  let spans = List.rev (terminals t.root 0 []) in
  let shape =
    if t.chunks <> chunks then
      [ v "tree-shape" "tree covers %d chunks, blob has %d" t.chunks chunks ]
    else []
  in
  let rec tile expected = function
    | [] ->
        if expected >= chunks then []
        else [ v "partition" "leaves end at %d, short of %d chunks" expected chunks ]
    | (lo, extent, _) :: rest ->
        if extent <= 0 then [ v "partition" "non-positive span %d at leaf offset %d" extent lo ]
        else if lo <> expected then
          [
            v "partition" "leaf at offset %d where %d expected (%s)" lo expected
              (if lo > expected then "gap" else "overlap");
          ]
        else tile (lo + extent) rest
  in
  let occupied_width =
    List.filter_map
      (fun (lo, extent, occupied) ->
        if occupied && extent <> 1 then
          Some (v "leaf-width" "occupied leaf at %d spans %d chunks" lo extent)
        else None)
      spans
  in
  shape @ tile 0 spans @ occupied_width

(* ---- Incremental Merkle digests -------------------------------------- *)

(* Finalizer in the murmur3/splitmix family: bijective on int64, spreads
   low-entropy inputs (small leaf digests, spans) across the word. *)
let mix h =
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xff51afd7ed558ccdL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* Left/right asymmetric so sibling swaps change the root; the span is folded
   in so trees of different extents never alias. *)
let combine ~span l r =
  mix
    (Int64.add
       (Int64.mul l 0x9e3779b97f4a7c15L)
       (Int64.add (Int64.mul r 0xbf58476d1ce4e5b9L) (Int64.of_int span)))

let leaf_mark = 0x1eafL
let absent_leaf = mix 0x61626e74L

let merkle_hashes = ref 0
let merkle_reuses = ref 0
let merkle_counters () = (!merkle_hashes, !merkle_reuses)

(* Empty-subtree digests depend only on the extent (never on the leaf digest
   function), so memoizing them on the canonical shared nodes is sound. *)
let rec empty_digest espan =
  match empty_node espan with
  | Empty ({ edig = Some d; _ }) ->
      incr merkle_reuses;
      d
  | Empty ({ edig = None; _ } as e) ->
      let d =
        if espan = 1 then absent_leaf
        else
          let sub = empty_digest (espan / 2) in
          combine ~span:espan sub sub
      in
      incr merkle_hashes;
      e.edig <- Some d;
      d
  | _ -> assert false

let leaf_digest ~digest value = mix (Int64.add (digest value) leaf_mark)

let merkle_digest ~digest t =
  let rec go node =
    match node with
    | Empty { espan; _ } -> empty_digest espan
    | Leaf ({ value; mdig; _ } as l) -> (
        match mdig with
        | Some d ->
            incr merkle_reuses;
            d
        | None ->
            incr merkle_hashes;
            let d = leaf_digest ~digest value in
            l.mdig <- Some d;
            d)
    | Branch ({ span; left; right; mdig; _ } as b) -> (
        match mdig with
        | Some d ->
            incr merkle_reuses;
            d
        | None ->
            let dl = go left in
            let dr = go right in
            incr merkle_hashes;
            let d = combine ~span dl dr in
            b.mdig <- Some d;
            d)
  in
  go t.root

let merkle_digest_with ~memo ~digest t =
  let rec go node =
    match node with
    | Empty { espan; _ } -> empty_digest espan
    | Leaf { id; value; _ } -> (
        match Hashtbl.find_opt memo id with
        | Some d ->
            incr merkle_reuses;
            d
        | None ->
            incr merkle_hashes;
            let d = leaf_digest ~digest value in
            Hashtbl.replace memo id d;
            d)
    | Branch { id; span; left; right; _ } -> (
        match Hashtbl.find_opt memo id with
        | Some d ->
            incr merkle_reuses;
            d
        | None ->
            let dl = go left in
            let dr = go right in
            incr merkle_hashes;
            let d = combine ~span dl dr in
            Hashtbl.replace memo id d;
            d)
  in
  go t.root

let diff_leaves a b =
  if a.chunks <> b.chunks then invalid_arg "Segment_tree.diff_leaves: shape mismatch";
  let leaf_opt node = match node with Leaf { value; _ } -> Some value | _ -> None in
  let rec go na nb lo acc =
    if na == nb then acc
    else
      match (na, nb) with
      | (Empty _ | Leaf _), (Empty _ | Leaf _) ->
          assert (span na = 1 && span nb = 1);
          let va = leaf_opt na and vb = leaf_opt nb in
          if va = vb || lo >= a.chunks then acc else (lo, va, vb) :: acc
      | _ ->
          let sp = max (span na) (span nb) in
          let split node =
            match node with
            | Branch { left; right; _ } -> (left, right)
            | Empty _ -> (empty_node (sp / 2), empty_node (sp / 2))
            | Leaf _ -> assert false
          in
          let la, ra = split na and lb, rb = split nb in
          go ra rb (lo + (sp / 2)) (go la lb lo acc)
  in
  List.rev (go a.root b.root 0 [])
