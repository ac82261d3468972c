type seg =
  | Zero of int
  | Pattern of { seed : int64; off : int; len : int }
  | Bytes of { data : bytes; off : int; len : int }

(* Segments in order, with [offs.(i)] the start offset of [segs.(i)], so
   random access and slicing are O(log segments). [dig] memoizes the whole
   payload's content digest — payloads are immutable, so once computed the
   digest is valid for the payload's lifetime. *)
type t = { len : int; segs : seg array; offs : int array; mutable dig : int64 option }

let seg_len = function
  | Zero n -> n
  | Pattern { len; _ } -> len
  | Bytes { len; _ } -> len

let length t = t.len
let empty = { len = 0; segs = [||]; offs = [||]; dig = Some 0L }

let of_seg seg =
  let n = seg_len seg in
  if n = 0 then empty else { len = n; segs = [| seg |]; offs = [| 0 |]; dig = None }

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

(* Build a payload from segments, dropping empties and merging adjacent
   contiguous segments. *)
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
  { len = !total; segs; offs; dig = None }

let concat ts =
  (* When exactly one non-empty payload remains, return it unchanged so the
     memoized digest survives reassembly (e.g. Sparse_bytes.read of one whole
     block on the commit path). *)
  match List.filter (fun t -> t.len > 0) ts with
  | [] -> empty
  | [ t ] -> t
  | ts -> of_seg_seq (fun push -> List.iter (fun t -> Array.iter push t.segs) ts)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Payload.sub";
  if len = 0 then empty
  else if pos = 0 && len = t.len then t
  else begin
    let first = seg_index t pos in
    let last = seg_index t (pos + len - 1) in
    of_seg_seq (fun push ->
        for k = first to last do
          let seg = t.segs.(k) in
          let sstart = t.offs.(k) in
          let cut_from = max 0 (pos - sstart) in
          let cut_to = min (seg_len seg) (pos + len - sstart) in
          push (seg_sub seg cut_from (cut_to - cut_from))
        done)
  end

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
   the [+1] of every [code]. [c] does not depend on [h], so consecutive
   words' Horner chains overlap; the loops allocate nothing. *)
let base_pow8 = pow_base 8
let word_codes = geom_sum 8

let[@inline] fold_byte h byte = Int64.add (Int64.mul h base) (Int64.of_int (byte + 1))

(* One Horner step of [c]: append byte [k] of [w] as the next digit. A
   top-level function, not a closure over [w], so that [fold_word] stays
   inlinable. *)
let[@inline] horner c w k = Int64.add (Int64.mul c base) (Int64.of_int (word_byte w k))

let[@inline] fold_word h w =
  let c = Int64.of_int (word_byte w 0) in
  let c = horner c w 1 in
  let c = horner c w 2 in
  let c = horner c w 3 in
  let c = horner c w 4 in
  let c = horner c w 5 in
  let c = horner c w 6 in
  let c = horner c w 7 in
  Int64.add (Int64.add (Int64.mul h base_pow8) c) word_codes

(* Stream positions [off, off+len) of pattern [seed]: whole aligned words
   fold at once, a partial word at either end byte by byte. *)
let fold_pattern seed off len =
  let h = ref 0L and i = ref off and stop = off + len in
  while !i < stop do
    let w = pattern_word seed (!i lsr 3) in
    if !i land 7 = 0 && !i + 8 <= stop then begin
      h := fold_word !h w;
      i := !i + 8
    end
    else begin
      let word_stop = min stop ((!i lor 7) + 1) in
      while !i < word_stop do
        h := fold_byte !h (word_byte w (!i land 7));
        incr i
      done
    end
  done;
  !h

let fold_bytes data off len =
  let h = ref 0L and i = ref off and stop = off + len in
  while !i + 8 <= stop do
    h := fold_word !h (Bytes.get_int64_le data !i);
    i := !i + 8
  done;
  while !i < stop do
    h := fold_byte !h (Char.code (Bytes.unsafe_get data !i));
    incr i
  done;
  !h

let seg_digest seg =
  match seg with
  | Zero n -> Int64.mul (geom_sum n) (code '\000')
  | Pattern { seed; off; len } ->
      hashed_bytes_counter := !hashed_bytes_counter + len;
      fold_pattern seed off len
  | Bytes { data; off; len } ->
      hashed_bytes_counter := !hashed_bytes_counter + len;
      fold_bytes data off len

let digest_cache : (int64 * int * int, int64) Hashtbl.t = Hashtbl.create 256

let seg_digest_cached seg =
  match seg with
  | Pattern { seed; off; len } ->
      let key = (seed, off, len) in
      (match Hashtbl.find_opt digest_cache key with
      | Some d ->
          hashed_bytes_counter := !hashed_bytes_counter + len;
          d
      | None ->
          let d = seg_digest seg in
          if Hashtbl.length digest_cache < 100_000 then Hashtbl.add digest_cache key d;
          d)
  | _ -> seg_digest seg

let digest t =
  match t.dig with
  | Some d -> d
  | None ->
      let d =
        Array.fold_left
          (fun h seg ->
            Int64.add (Int64.mul h (pow_base (seg_len seg))) (seg_digest_cached seg))
          0L t.segs
      in
      t.dig <- Some d;
      d

let seg_equal_struct a b =
  match (a, b) with
  | Zero m, Zero n -> m = n
  | Pattern p, Pattern q -> p.seed = q.seed && p.off = q.off && p.len = q.len
  | Bytes p, Bytes q -> p.data == q.data && p.off = q.off && p.len = q.len
  | _ -> false

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
