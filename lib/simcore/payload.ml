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
   can actually perform (the value carries its digest). The cross-payload
   [Pattern] segment cache below is a pure simulator shortcut with no
   real-world counterpart, so its hits still count here; [Zero] runs are a
   representation choice and stay free. The delta of this counter across
   an operation is the honest measure of digest work done. *)
let hashed_bytes_counter = ref 0
let hashed_bytes () = !hashed_bytes_counter

(* The digest kernel folds a word's 8 bytes at once. With [c] the bytes
   read as base-[b] digits, c = sum_k byte_k * b^(7-k), eight per-byte
   steps collapse to h * b^8 + c + (1 + b + ... + b^7): the last term is
   the [+1] of every [code]. [c] is eight products by constants, summed
   in a tree, so no multiply waits on another, and [c] does not depend on
   [h]; the loops fold two words per step, h * b^16 + (c0 + K) * b^8 +
   (c1 + K), so the only chain carried from step to step is one multiply
   and one add per 16 bytes. Nothing allocates.

   K = 1 + b + ... + b^7 and the powers b^2 .. b^8, b^16 (mod 2^64) are
   written out so that they stay immediate operands in the loops; the
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

(* Stream positions [off, off+len) of pattern [seed]: a partial word at
   either end byte by byte, the aligned words between two at a time. *)
let fold_pattern seed off len =
  let h = ref 0L and i = ref off and stop = off + len in
  if !i land 7 <> 0 then begin
    let w = pattern_word seed (!i lsr 3) in
    let head_stop = Int.min stop ((!i lor 7) + 1) in
    while !i < head_stop do
      h := fold_byte !h (word_byte w (!i land 7));
      incr i
    done
  end;
  let body_stop = !i + ((stop - !i) land lnot 7) in
  while !i + 16 <= body_stop do
    let w = !i lsr 3 in
    h := fold_word2 !h (pattern_word seed w) (pattern_word seed (w + 1));
    i := !i + 16
  done;
  if !i < body_stop then begin
    h := fold_word !h (pattern_word seed (!i lsr 3));
    i := !i + 8
  end;
  if !i < stop then begin
    let w = pattern_word seed (!i lsr 3) in
    while !i < stop do
      h := fold_byte !h (word_byte w (!i land 7));
      incr i
    done
  end;
  !h

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

let fold_seg = function
  | Zero n -> Int64.mul (geom_sum n) (code '\000')
  | Pattern { seed; off; len } -> fold_pattern seed off len
  | Bytes { data; off; len } -> fold_bytes data off len

(* Split folds. A [Pattern] or [Bytes] segment of at least [split_min]
   bytes folds as two halves, h(a ++ b) = h(a) * b^|b| + h(b): the caller
   folds the first while a helper domain folds the second. The helper
   runs [fold_seg] on one immutable segment and writes one [int64]; the
   caller is blocked in the fold meanwhile, so no [Bytes] segment can
   change under it, and every counter, cache and memo stays on the
   caller's domain. Digests and counts are those of a sequential fold.

   The job is one slot whose state moves idle -> posted (caller) ->
   claimed (helper) -> done (helper) -> idle (caller). A caller that
   finishes its half while the job is still posted takes it back with a
   compare-and-set and folds it itself, so it waits only for a helper
   that has already started. The helper is spawned by the first long
   fold that finds none alive, spins for the next job and exits after
   [helper_idle_spins] spins without one: while a second domain lives,
   every minor collection stops both, so a helper lives for a burst of
   folds, not for the process. Its spin allocates nothing, so it adds no
   minor collection of its own. *)
let split_min = 64 * 1024

(* About 2 ms of [Domain.cpu_relax] on a 2-core Xeon host (25 ns each). *)
let helper_idle_spins = 80_000

let job_idle = 0
let job_posted = 1
let job_claimed = 2
let job_done = 3

type job = {
  state : int Atomic.t; (* lint: allow domains — the split-fold job slot *)
  mutable half : seg;
  mutable result : int64;
}

let job = { state = Atomic.make job_idle; half = Zero 0; result = 0L } (* lint: allow domains *)
let[@inline] job_state () = Atomic.get job.state (* lint: allow domains *)
let[@inline] set_job_state s = Atomic.set job.state s (* lint: allow domains *)
let[@inline] take_job from into = Atomic.compare_and_set job.state from into (* lint: allow domains *)
let[@inline] relax () = Domain.cpu_relax () (* lint: allow domains *)

(* Whether a helper is running; the helper clears it as it exits. *)
let helper_alive = Atomic.make false (* lint: allow domains *)

(* Whether spawning a helper is worth trying: more than one CPU is
   available and no spawn has failed. Caller's domain only. *)
let may_spawn = ref (Domain.recommended_domain_count () > 1) (* lint: allow domains *)

let rec helper_loop spins_left =
  if job_state () = job_posted && take_job job_posted job_claimed then begin
    job.result <- fold_seg job.half;
    set_job_state job_done;
    helper_loop helper_idle_spins
  end
  else if spins_left = 0 then Atomic.set helper_alive false (* lint: allow domains *)
  else begin
    relax ();
    helper_loop (spins_left - 1)
  end

(* Whether a helper is alive, spawning one if none is and one may be. A
   helper is never joined: it has nothing to return, and the runtime
   frees a domain when it exits. *)
let helper_ready () =
  Atomic.get helper_alive (* lint: allow domains *)
  || !may_spawn
     &&
     (Atomic.set helper_alive true; (* lint: allow domains *)
      match Domain.spawn (fun () -> helper_loop helper_idle_spins) with (* lint: allow domains *)
      | (_ : unit Domain.t) -> true (* lint: allow domains *)
      | exception _ ->
          Atomic.set helper_alive false; (* lint: allow domains *)
          may_spawn := false;
          false)

let split_fold seg =
  let len = seg_len seg in
  let off = match seg with Pattern { off; _ } | Bytes { off; _ } -> off | Zero _ -> 0 in
  (* The second half starts on a 16-byte boundary of the stream or
     buffer, so it runs the two-word loop from its first byte. *)
  let mid = ((off + (len / 2)) land lnot 15) - off in
  let first = seg_sub seg 0 mid and second = seg_sub seg mid (len - mid) in
  let posted = helper_ready () in
  if posted then begin
    job.half <- second;
    set_job_state job_posted
  end;
  let h1 = fold_seg first in
  (* With no helper, or with the job taken back, the caller folds the
     second half: one path for both. *)
  let h2 =
    if posted && not (take_job job_posted job_idle) then begin
      while job_state () <> job_done do
        relax ()
      done;
      let h2 = job.result in
      set_job_state job_idle;
      h2
    end
    else fold_seg second
  in
  job.half <- Zero 0;
  Int64.add (Int64.mul h1 (pow_base (len - mid))) h2

let seg_digest seg =
  match seg with
  | Zero _ -> fold_seg seg
  | Pattern { len; _ } | Bytes { len; _ } ->
      hashed_bytes_counter := !hashed_bytes_counter + len;
      if len >= split_min then split_fold seg else fold_seg seg

(* Cross-payload cache of [Pattern] segment digests, keyed by the segment
   itself, that is by (seed, off, len), with integer hashing and equality,
   so a lookup allocates nothing. Two generations bound its memory and
   keep it admitting: a miss enters [young]; once [young] holds
   [cache_generation] entries it becomes [old] and the previous [old] is
   dropped; a hit in [old] is copied into [young]. A segment digested again
   within one generation's worth of admissions is therefore always a hit.
   [young] never holds the key being admitted, so [add] suffices. Nothing
   iterates the tables, so their order is never observed. *)
let cache_generation = 150_000

module Seg_table = Hashtbl.Make (struct
  type t = seg

  let equal = seg_equal_struct

  let hash = function
    | Pattern { seed; off; len } ->
        let h = Int64.to_int seed + (off * 0x9E3779B97F4A7C1) + (len * 0x2545F4914F6CDD1D) in
        let h = (h lxor (h lsr 29)) * 0x1CE4E5B9BF58476D in
        h lxor (h lsr 32)
    | Zero _ | Bytes _ -> 0
end)

type cache = {
  mutable young : int64 Seg_table.t;
  mutable old : int64 Seg_table.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let digest_cache =
  { young = Seg_table.create 256; old = Seg_table.create 256; hit_count = 0; miss_count = 0 }

let cache_admit c key d =
  if Seg_table.length c.young >= cache_generation then begin
    let dropped = c.old in
    Seg_table.clear dropped;
    c.old <- c.young;
    c.young <- dropped
  end;
  Seg_table.add c.young key d

(* The cached digest of [key], if any; a hit in [old] moves into [young]. *)
let cache_find c key =
  match Seg_table.find_opt c.young key with
  | Some _ as hit -> hit
  | None -> (
      match Seg_table.find_opt c.old key with
      | Some d as hit ->
          cache_admit c key d;
          hit
      | None -> None)

let seg_digest_cached seg =
  match seg with
  | Pattern { len; _ } -> (
      let c = digest_cache in
      match cache_find c seg with
      | Some d ->
          c.hit_count <- c.hit_count + 1;
          hashed_bytes_counter := !hashed_bytes_counter + len;
          d
      | None ->
          c.miss_count <- c.miss_count + 1;
          let d = seg_digest seg in
          cache_admit c seg d;
          d)
  | _ -> seg_digest seg

type cache_stats = { hits : int; misses : int; generation : int }

let segment_cache_stats () =
  { hits = digest_cache.hit_count; misses = digest_cache.miss_count; generation = cache_generation }

(* Bytes a fold of [t] feeds the hash: every [Pattern] and [Bytes] byte. *)
let hashable_bytes t =
  Array.fold_left (fun n seg -> match seg with Zero _ -> n | _ -> n + seg_len seg) 0 t.segs

let digest t =
  match t.dig with
  | Known d -> d
  | Owed d ->
      hashed_bytes_counter := !hashed_bytes_counter + hashable_bytes t;
      t.dig <- Known d;
      d
  | Unknown ->
      let d =
        Array.fold_left
          (fun h seg ->
            Int64.add (Int64.mul h (pow_base (seg_len seg))) (seg_digest_cached seg))
          0L t.segs
      in
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
