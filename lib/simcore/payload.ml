type seg =
  | Zero of int
  | Pattern of { seed : int64; off : int; len : int }
  | Bytes of { data : bytes; off : int; len : int }

(* The whole payload's content digest, memoized on the value — payloads
   are immutable, so once known the digest is valid for the payload's
   lifetime. [Owed d] is a digest inherited from a value with the same
   segments (see [splice]): [d] is right, but this value has not paid for
   it yet, so its first [digest] still counts what a fold would hash. *)
type memo = Unknown | Known of int64 | Owed of int64

(* Segments in order, with [offs.(i)] the start offset of [segs.(i)], so
   random access and slicing are O(log segments). *)
type t = { len : int; segs : seg array; offs : int array; mutable dig : memo }

let seg_len = function
  | Zero n -> n
  | Pattern { len; _ } -> len
  | Bytes { len; _ } -> len

let length t = t.len
let empty = { len = 0; segs = [||]; offs = [||]; dig = Known 0L }

let of_seg seg =
  let n = seg_len seg in
  if n = 0 then empty else { len = n; segs = [| seg |]; offs = [| 0 |]; dig = Unknown }

let zero len = of_seg (Zero len)
let pattern ~seed len = of_seg (Pattern { seed; off = 0; len })
let of_bytes data = of_seg (Bytes { data; off = 0; len = Bytes.length data })
let of_string s = of_bytes (Bytes.of_string s)

(* Word [w] of the [Pattern] stream of [seed], stream positions [8w] to
   [8w+7] lowest byte first (see [pattern] in the interface). Every reader
   below takes whole words, so one mix yields 8 bytes. The SplitMix64
   finalizer is the one {!Rng} uses, copied here so that it inlines into
   the loops and its [int64]s stay unboxed. *)
let[@inline] pattern_word seed w =
  let z = Int64.add seed (Int64.of_int w) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Byte [k] (0..7) of a word, lowest first. *)
let[@inline] word_byte w k = Int64.to_int (Int64.shift_right_logical w (k lsl 3)) land 0xff

let seg_byte_at seg i =
  match seg with
  | Zero _ -> '\000'
  | Pattern { seed; off; _ } ->
      let i = off + i in
      Char.unsafe_chr (word_byte (pattern_word seed (i lsr 3)) (i land 7))
  | Bytes { data; off; _ } -> Bytes.get data (off + i)

(* Index of the segment containing offset [pos]. *)
let seg_index t pos =
  let lo = ref 0 and hi = ref (Array.length t.segs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.offs.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

let byte_at t i =
  if i < 0 || i >= t.len then invalid_arg "Payload.byte_at";
  let k = seg_index t i in
  seg_byte_at t.segs.(k) (i - t.offs.(k))

let seg_sub seg pos len =
  match seg with
  | Zero _ -> Zero len
  | Pattern { seed; off; _ } -> Pattern { seed; off = off + pos; len }
  | Bytes { data; off; _ } -> Bytes { data; off = off + pos; len }

let seg_merge a b =
  match (a, b) with
  | Zero m, Zero n -> Some (Zero (m + n))
  | Pattern p, Pattern q when p.seed = q.seed && q.off = p.off + p.len ->
      Some (Pattern { p with len = p.len + q.len })
  | Bytes p, Bytes q when p.data == q.data && q.off = p.off + p.len ->
      Some (Bytes { p with len = p.len + q.len })
  | _ -> None

let seg_equal_struct a b =
  match (a, b) with
  | Zero m, Zero n -> m = n
  | Pattern p, Pattern q -> p.seed = q.seed && p.off = q.off && p.len = q.len
  | Bytes p, Bytes q -> p.data == q.data && p.off = q.off && p.len = q.len
  | _ -> false

(* Build a payload from segments, dropping empties and merging adjacent
   contiguous segments. Every payload is built here or holds one segment,
   so none has two neighbours that would merge: it is normalized. *)
let of_seg_seq iter =
  let buf = ref [] and n = ref 0 in
  iter (fun seg ->
      if seg_len seg > 0 then
        match !buf with
        | prev :: rest -> (
            match seg_merge prev seg with
            | Some merged -> buf := merged :: rest
            | None ->
                buf := seg :: !buf;
                incr n)
        | [] ->
            buf := [ seg ];
            incr n);
  let segs = Array.make !n (Zero 0) in
  List.iteri (fun i seg -> segs.(!n - 1 - i) <- seg) !buf;
  let offs = Array.make !n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i seg ->
      offs.(i) <- !total;
      total := !total + seg_len seg)
    segs;
  { len = !total; segs; offs; dig = Unknown }

let concat ts =
  (* When exactly one non-empty payload remains, return it unchanged so the
     memoized digest survives reassembly (e.g. Sparse_bytes.read of one whole
     block on the commit path). *)
  match List.filter (fun t -> t.len > 0) ts with
  | [] -> empty
  | [ t ] -> t
  | ts -> of_seg_seq (fun push -> List.iter (fun t -> Array.iter push t.segs) ts)

(* [seg], starting at [sstart] in its payload, clipped to the stretch
   [\[pos, pos+len)]; the segment itself when it lies inside. *)
let clip seg sstart pos len =
  let cut_from = max 0 (pos - sstart) and cut_to = min (seg_len seg) (pos + len - sstart) in
  if cut_from = 0 && cut_to = seg_len seg then seg else seg_sub seg cut_from (cut_to - cut_from)

(* Pushes the segments of [t] clipped to [\[pos, pos+len)]. *)
let push_range t pos len push =
  if len > 0 then
    for k = seg_index t pos to seg_index t (pos + len - 1) do
      push (clip t.segs.(k) t.offs.(k) pos len)
    done

(* Every payload is normalized (see [of_seg_seq]), and clipping the end
   segments of a run does not make neighbours merge, so a slice takes the
   clipped segments as they are. *)
let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Payload.sub";
  if len = 0 then empty
  else if pos = 0 && len = t.len then t
  else begin
    let first = seg_index t pos in
    let n = seg_index t (pos + len - 1) - first + 1 in
    let segs = Array.init n (fun i -> clip t.segs.(first + i) t.offs.(first + i) pos len) in
    let offs = Array.make n 0 in
    for i = 1 to n - 1 do
      offs.(i) <- offs.(i - 1) + seg_len segs.(i - 1)
    done;
    { len; segs; offs; dig = Unknown }
  end

(* Whether [seg]'s slice [\[from, from+len)] is structurally [other]. *)
let seg_slice_is seg from len other =
  match (seg, other) with
  | Zero _, Zero n -> n = len
  | Pattern p, Pattern q -> Int64.equal p.seed q.seed && p.off + from = q.off && q.len = len
  | Bytes p, Bytes q -> p.data == q.data && p.off + from = q.off && q.len = len
  | _ -> false

(* Whether [patch]'s segments are exactly [base]'s over [\[pos,
   pos+length patch)], segment for segment; allocates nothing. Both are
   normalized (no two adjacent segments merge), so this holds exactly when
   [sub base ~pos ~len:(length patch)] has [patch]'s segments. *)
let same_segments base pos patch =
  let n = Array.length patch.segs in
  n = 0
  ||
  let k0 = seg_index base pos and stop = pos + patch.len in
  k0 + n <= Array.length base.segs
  &&
  let rec go j =
    j = n
    ||
    let k = k0 + j in
    let seg = base.segs.(k) and sstart = base.offs.(k) in
    let cut_from = max 0 (pos - sstart) in
    let cut_to = min (seg_len seg) (stop - sstart) in
    seg_slice_is seg cut_from (cut_to - cut_from) patch.segs.(j) && go (j + 1)
  in
  go 0

let splice base ~pos patch =
  let plen = patch.len in
  let rest = base.len - pos - plen in
  if pos < 0 || rest < 0 then invalid_arg "Payload.splice";
  if plen = 0 && (pos = 0 || rest = 0) then (if base.len = 0 then empty else base)
  else if pos = 0 && rest = 0 then patch
  else if same_segments base pos patch then
    (* The rebuild would have [base]'s segments: share them, and the
       digest, which the new value still has to pay for once. *)
    let dig = match base.dig with Known d | Owed d -> Owed d | Unknown -> Unknown in
    { base with dig }
  else
    of_seg_seq (fun push ->
        push_range base 0 pos push;
        Array.iter push patch.segs;
        push_range base (pos + plen) rest push)

(* Rolling content hash: h(s ++ c) = h(s) * b + code(c) mod 2^64; segment
   hashes combine as h(s1 ++ s2) = h(s1) * b^|s2| + h(s2). *)
let base = 0x100000001B3L

let pow_base n =
  let rec go acc b n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then Int64.mul acc b else acc in
      go acc (Int64.mul b b) (n lsr 1)
  in
  go 1L base n

(* Geometric sum 1 + b + ... + b^(n-1) mod 2^64, by fast doubling. *)
let geom_sum n =
  let rec go n =
    if n = 0 then (0L, 1L)
    else if n land 1 = 1 then
      let s, p = go (n - 1) in
      (Int64.add (Int64.mul s base) 1L, Int64.mul p base)
    else
      let s, p = go (n / 2) in
      (Int64.mul s (Int64.add 1L p), Int64.mul p p)
  in
  fst (go n)

let code c = Int64.of_int (Char.code c + 1)

(* Bytes a real implementation would have fed through the hash since
   process start. A payload whose digest is already memoized on the value
   ([dig]) costs nothing — that memo models digest reuse an implementation
   can actually perform (the value carries its digest). A [Pattern] run
   digested by its identity still counts its length, as a content hash of
   those bytes would; [Zero] runs are a representation choice and stay
   free. The delta of this counter across an operation is the honest
   measure of digest work done. *)
let hashed_bytes_counter = ref 0
let hashed_bytes () = !hashed_bytes_counter

(* The [Bytes] kernel folds a word's 8 bytes at once. With [c] the bytes
   read as base-[b] digits, c = sum_k byte_k * b^(7-k), eight per-byte
   steps collapse to h * b^8 + c + (1 + b + ... + b^7): the last term is
   the [+1] of every [code]. [c] is eight products by constants, summed
   in a tree, so no multiply waits on another, and [c] does not depend on
   [h]; the loop folds two words per step, h * b^16 + (c0 + K) * b^8 +
   (c1 + K), so the only chain carried from step to step is one multiply
   and one add per 16 bytes. Nothing allocates.

   K = 1 + b + ... + b^7 and the powers b^2 .. b^8, b^16 (mod 2^64) are
   written out so that they stay immediate operands in the loop; the
   golden vectors and the per-byte reference properties pin them. *)
let word_codes = 0x573F50F01835A390L
let b2 = 0x000366000002E329L
let b3 = 0x08A97B0004E7FEABL
let b4 = 0x9FFAAC085635BC91L
let b5 = 0x0CAEE32A7D4F6A63L
let b6 = 0xDC966432EDF1C639L
let b7 = 0xC5527B8A51D3D2DBL
let b8 = 0x1EFAC7090AEF4A21L
let b16 = 0x4EFE15C813151841L

let[@inline] fold_byte h byte = Int64.add (Int64.mul h base) (Int64.of_int (byte + 1))

(* Byte [k] of [w] as an [int64], times the digit weight [pow]. *)
let[@inline] digit w k pow =
  Int64.mul (Int64.logand (Int64.shift_right_logical w (k lsl 3)) 0xFFL) pow

(* c + K for word [w]: its eight bytes as digits, plus their [+1]s. *)
let[@inline] word_term w =
  let p0 = digit w 0 b7 and p1 = digit w 1 b6 and p2 = digit w 2 b5 and p3 = digit w 3 b4 in
  let p4 = digit w 4 b3 and p5 = digit w 5 b2 and p6 = digit w 6 base in
  let p7 = Int64.shift_right_logical w 56 in
  Int64.(
    add
      (add (add (add p0 p1) (add p2 p3)) (add (add p4 p5) (add p6 p7)))
      word_codes)

let[@inline] fold_word h w = Int64.add (Int64.mul h b8) (word_term w)

let[@inline] fold_word2 h w0 w1 =
  Int64.add (Int64.mul h b16) (Int64.add (Int64.mul (word_term w0) b8) (word_term w1))

let fold_bytes data off len =
  let h = ref 0L and i = ref off and stop = off + len in
  while !i + 16 <= stop do
    h := fold_word2 !h (Bytes.get_int64_le data !i) (Bytes.get_int64_le data (!i + 8));
    i := !i + 16
  done;
  if !i + 8 <= stop then begin
    h := fold_word !h (Bytes.get_int64_le data !i);
    i := !i + 8
  end;
  while !i < stop do
    h := fold_byte !h (Char.code (Bytes.unsafe_get data !i));
    incr i
  done;
  !h

(* A maximal run of [Pattern] bytes is digested by its identity, not its
   bytes. Stream [seed] at position [off] is stream [seed + off/8] at
   [off mod 8] (word [w] of [seed] is the mix of [seed + w]), so a run is
   named by that canonical (word seed, byte offset 0..7) and its length,
   and two segments continue one run when the first ends where the
   second starts in those coordinates. The mix of the mixed word seed
   plus (length, offset) packed into one word separates distinct runs. *)
let pattern_run_digest seed r len =
  pattern_word (Int64.add (pattern_word seed 0) (Int64.of_int ((len lsl 3) lor r))) 0

(* The digest of segments in order: [Zero] and [Bytes] by content,
   [Pattern] runs by [pattern_run_digest], each combined as
   h * b^len + run. The open run starts at canonical ([rs], [rr]) and
   holds [rl] bytes, none when [rl = 0]. *)
let fold_segs segs =
  let h = ref 0L and rs = ref 0L and rr = ref 0 and rl = ref 0 in
  let push len d = h := Int64.add (Int64.mul !h (pow_base len)) d in
  let close_run () =
    if !rl > 0 then begin
      push !rl (pattern_run_digest !rs !rr !rl);
      rl := 0
    end
  in
  Array.iter
    (function
      | Pattern { seed; off; len } ->
          let s = Int64.add seed (Int64.of_int (off lsr 3)) and r = off land 7 in
          let e = !rr + !rl in
          if !rl > 0 && r = e land 7 && Int64.equal s (Int64.add !rs (Int64.of_int (e lsr 3)))
          then rl := !rl + len
          else begin
            close_run ();
            rs := s;
            rr := r;
            rl := len
          end
      | Zero n ->
          close_run ();
          push n (Int64.mul (geom_sum n) (code '\000'))
      | Bytes { data; off; len } ->
          close_run ();
          push len (fold_bytes data off len))
    segs;
  close_run ();
  !h

(* Bytes a fold of [t] feeds the hash: every [Pattern] and [Bytes] byte. *)
let hashable_bytes t =
  Array.fold_left (fun n seg -> match seg with Zero _ -> n | _ -> n + seg_len seg) 0 t.segs

let digest t =
  match t.dig with
  | Known d -> d
  | (Owed _ | Unknown) as memo ->
      hashed_bytes_counter := !hashed_bytes_counter + hashable_bytes t;
      let d = match memo with Owed d -> d | _ -> fold_segs t.segs in
      t.dig <- Known d;
      d

(* Writes pattern positions [off, off+len) to [buf] at [pos], a whole
   aligned word at a time, a partial word at either end byte by byte. *)
let fill_pattern buf pos seed off len =
  let i = ref off and stop = off + len in
  while !i < stop do
    let w = pattern_word seed (!i lsr 3) in
    if !i land 7 = 0 && !i + 8 <= stop then begin
      Bytes.set_int64_le buf (pos + !i - off) w;
      i := !i + 8
    end
    else begin
      let word_stop = min stop ((!i lor 7) + 1) in
      while !i < word_stop do
        Bytes.unsafe_set buf (pos + !i - off) (Char.unsafe_chr (word_byte w (!i land 7)));
        incr i
      done
    end
  done

let byte_compare_guard = 4 * 1024 * 1024
let to_string_guard = 64 * 1024 * 1024

let rec equal a b =
  a.len = b.len
  && (Array.length a.segs = Array.length b.segs
      && Array.for_all2 seg_equal_struct a.segs b.segs
     ||
     if a.len <= byte_compare_guard then to_string a = to_string b
     else digest a = digest b)

and to_string t =
  if t.len > to_string_guard then invalid_arg "Payload.to_string: payload too large";
  let buf = Bytes.create t.len in
  let pos = ref 0 in
  Array.iter
    (fun seg ->
      (match seg with
      | Zero n -> Bytes.fill buf !pos n '\000'
      | Bytes { data; off; len } -> Bytes.blit data off buf !pos len
      | Pattern { seed; off; len } -> fill_pattern buf !pos seed off len);
      pos := !pos + seg_len seg)
    t.segs;
  Bytes.unsafe_to_string buf

let pp_seg ppf = function
  | Zero n -> Fmt.pf ppf "zero(%d)" n
  | Pattern { seed; off; len } -> Fmt.pf ppf "pattern(seed=%Lx,off=%d,len=%d)" seed off len
  | Bytes { len; _ } -> Fmt.pf ppf "bytes(len=%d)" len

let pp ppf t =
  Fmt.pf ppf "@[<h>payload(%d)[%a]@]" t.len
    Fmt.(array ~sep:comma pp_seg)
    t.segs
