type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let of_key ~seed name =
  (* Fold the name into the seed one byte at a time, mixing at every
     step; the resulting stream depends only on (seed, name), never on
     how many draws other consumers made first. *)
  let h = ref (mix (Int64.of_int seed)) in
  String.iter
    (fun c -> h := mix (Int64.add (Int64.mul !h golden) (Int64.of_int (Char.code c))))
    name;
  { state = !h }

let rank ~seed i =
  (* Two mixing rounds decorrelate consecutive indices under the same
     seed; masking to [max_int] keeps the result a non-negative [int]. *)
  let z = mix (Int64.add (mix (Int64.of_int seed)) (Int64.mul golden (Int64.of_int (i + 1)))) in
  Int64.to_int z land max_int
