(* Tests for the simulation kernel: sizes, RNG, payloads, event queue,
   engine fibers, synchronization primitives, cancellation, stats, and the
   engine's teardown audit over a corrupted qcow2 image. *)

open Simcore

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Size *)

let test_size_constants () =
  Alcotest.(check int) "kib" 1024 Size.kib;
  Alcotest.(check int) "mib" (1024 * 1024) Size.mib;
  Alcotest.(check int) "mib_n" (50 * 1024 * 1024) (Size.mib_n 50)

let test_size_rounding () =
  Alcotest.(check int) "div_ceil exact" 4 (Size.div_ceil 8 2);
  Alcotest.(check int) "div_ceil up" 5 (Size.div_ceil 9 2);
  Alcotest.(check int) "div_ceil zero" 0 (Size.div_ceil 0 7);
  Alcotest.(check int) "round_up" 512 (Size.round_up 300 256);
  Alcotest.(check int) "round_up exact" 256 (Size.round_up 256 256)

let test_size_pp () =
  Alcotest.(check string) "mb" "52.0 MB" (Size.to_string (Size.mib_n 52));
  Alcotest.(check string) "b" "17 B" (Size.to_string 17);
  Alcotest.(check string) "kb" "1.5 KB" (Size.to_string 1536)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 10.0 > 0.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "diverge" false (Rng.int64 a = Rng.int64 b)

(* ------------------------------------------------------------------ *)
(* Payload *)

let payload = Alcotest.testable Payload.pp Payload.equal

let test_payload_basics () =
  let p = Payload.of_string "hello world" in
  Alcotest.(check int) "length" 11 (Payload.length p);
  Alcotest.(check string) "roundtrip" "hello world" (Payload.to_string p);
  Alcotest.(check char) "byte_at" 'w' (Payload.byte_at p 6)

let test_payload_zero () =
  let p = Payload.zero 5 in
  Alcotest.(check string) "zeros" "\000\000\000\000\000" (Payload.to_string p)

let test_payload_sub () =
  let p = Payload.of_string "abcdefgh" in
  Alcotest.(check string) "middle" "cde" (Payload.to_string (Payload.sub p ~pos:2 ~len:3));
  Alcotest.(check string) "empty" "" (Payload.to_string (Payload.sub p ~pos:4 ~len:0))

let test_payload_concat () =
  let p = Payload.concat [ Payload.of_string "ab"; Payload.of_string "cd"; Payload.zero 2 ] in
  Alcotest.(check string) "concat" "abcd\000\000" (Payload.to_string p);
  Alcotest.(check int) "len" 6 (Payload.length p)

let test_payload_pattern_deterministic () =
  let a = Payload.pattern ~seed:42L 1000 and b = Payload.pattern ~seed:42L 1000 in
  Alcotest.check payload "equal" a b;
  let c = Payload.pattern ~seed:43L 1000 in
  Alcotest.(check bool) "different" false (Payload.equal a c)

let test_payload_pattern_slicing () =
  (* A slice of a pattern equals the corresponding bytes of the whole. *)
  let whole = Payload.pattern ~seed:7L 100 in
  let slice = Payload.sub whole ~pos:33 ~len:20 in
  let expected = String.sub (Payload.to_string whole) 33 20 in
  Alcotest.(check string) "slice bytes" expected (Payload.to_string slice)

let test_payload_equal_mixed_repr () =
  (* Same content built via different structures compares equal. *)
  let a = Payload.of_string "abcdef" in
  let b = Payload.concat [ Payload.of_string "abc"; Payload.of_string "def" ] in
  Alcotest.check payload "structural vs split" a b

let test_payload_digest_matches_equal () =
  let a = Payload.concat [ Payload.pattern ~seed:3L 100; Payload.zero 50 ] in
  let b =
    Payload.concat
      [ Payload.sub (Payload.pattern ~seed:3L 100) ~pos:0 ~len:60;
        Payload.sub (Payload.pattern ~seed:3L 100) ~pos:60 ~len:40; Payload.zero 50 ]
  in
  Alcotest.(check int64) "digest equal" (Payload.digest a) (Payload.digest b)

let test_payload_digest_zero_closed_form () =
  (* The O(log n) zero digest must agree with the byte-by-byte digest. *)
  let z = Payload.zero 1000 in
  let explicit = Payload.of_bytes (Bytes.make 1000 '\000') in
  Alcotest.(check int64) "closed form" (Payload.digest explicit) (Payload.digest z)

let test_payload_pattern_byte_at_pure () =
  let p5 = Payload.pattern ~seed:5L 256 and p6 = Payload.pattern ~seed:6L 256 in
  Alcotest.(check char) "pure" (Payload.byte_at p5 100)
    (Payload.byte_at (Payload.pattern ~seed:5L 256) 100);
  let distinct = ref 0 in
  for i = 0 to 255 do
    if Payload.byte_at p5 i <> Payload.byte_at p6 i then incr distinct
  done;
  Alcotest.(check bool) "seeds differ" true (!distinct > 200)

(* Digests and pattern bytes pinned: dedup, Merkle roots and every
   rendered digest depend on these exact values. A [Pattern] run digests
   by its canonical identity, so stream 8 at offset 11 is stream 9 at
   offset 3; [Bytes] and [Zero] stretches fold by content. *)
let test_payload_golden_digests () =
  let check name expected p = Alcotest.(check int64) name expected (Payload.digest p) in
  check "pattern 42, 1 MiB" 3602855446077422069L (Payload.pattern ~seed:42L (1024 * 1024));
  check "unaligned pattern slice" 6164329285894362720L
    (Payload.sub (Payload.pattern ~seed:9L 3_000_000) ~pos:3 ~len:1_000_003);
  check "seed-shifted alias" 6164329285894362720L
    (Payload.sub (Payload.pattern ~seed:8L 3_000_000) ~pos:11 ~len:1_000_003);
  check "13-byte bytes" (-4109545233550990002L) (Payload.of_string "hello, world!");
  check "zero/pattern/bytes concat" (-1295856664501039112L)
    (Payload.concat
       [ Payload.zero 1000; Payload.sub (Payload.pattern ~seed:11L 5000) ~pos:5 ~len:777;
         Payload.of_string "blobcr-checkpoint"; Payload.zero 3; Payload.pattern ~seed:12L 4099 ]);
  let first16 = "\xdc\x45\xbb\xbe\x3d\x61\xbf\xb6\x6c\x33\x78\x70\x97\x07\x77\xd1" in
  let p = Payload.pattern ~seed:5L 16 in
  Alcotest.(check string) "pattern 5, to_string" first16 (Payload.to_string p);
  Alcotest.(check string) "pattern 5, byte_at" first16 (String.init 16 (Payload.byte_at p))

let test_payload_hashed_bytes_accounting () =
  let n = 100_003 in
  let fresh () = Payload.pattern ~seed:0x5EED_ACC7L n in
  let delta f =
    let before = Payload.hashed_bytes () in
    f ();
    Payload.hashed_bytes () - before
  in
  let p = fresh () in
  Alcotest.(check int) "first digest" n (delta (fun () -> ignore (Payload.digest p)));
  Alcotest.(check int) "another value, same segment" n
    (delta (fun () -> ignore (Payload.digest (fresh ()))));
  Alcotest.(check int) "per-value memo" 0 (delta (fun () -> ignore (Payload.digest p)))

let test_payload_to_string_guard () =
  Alcotest.check_raises "guard" (Invalid_argument "Payload.to_string: payload too large")
    (fun () -> ignore (Payload.to_string (Payload.zero (Size.mib_n 65))))

(* qcheck: random slicing/concatenation preserves content. *)
let prop_payload_slice_concat =
  QCheck.Test.make ~name:"payload: split at any point and reconcat is identity" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 200)) (int_range 0 200))
    (fun (s, cut) ->
      QCheck.assume (s <> "");
      let cut = cut mod String.length s in
      let p = Payload.of_string s in
      let left = Payload.sub p ~pos:0 ~len:cut in
      let right = Payload.sub p ~pos:cut ~len:(String.length s - cut) in
      Payload.to_string (Payload.concat [ left; right ]) = s)

let prop_payload_digest_agrees_with_equal =
  QCheck.Test.make ~name:"payload: equal strings have equal digests" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let pa = Payload.of_string a and pb = Payload.of_string b in
      if a = b then Payload.digest pa = Payload.digest pb && Payload.equal pa pb
      else (not (Payload.equal pa pb)) || a = b)

(* The digest's definition, one byte at a time: h <- h * b + (byte + 1)
   mod 2^64. The kernel folds whole words; this is what it must equal. *)
let reference_of_string s =
  let h = ref 0L in
  String.iter
    (fun c -> h := Int64.add (Int64.mul !h 0x100000001B3L) (Int64.of_int (Char.code c + 1)))
    s;
  !h

let reference_digest p = reference_of_string (String.init (Payload.length p) (Payload.byte_at p))

(* Offsets 0-15 cover every alignment of a slice's first byte. Half the
   lengths are 0-64: slices shorter than a word, and heads and tails on
   either side of a word boundary. The other half run to 4 KiB + 1, so
   the kernel's two-words-per-step loop, its odd-word tail and both
   partial words meet in one slice. *)
let slice_gen =
  QCheck.(
    pair (int_range 0 15)
      (make ~print:Print.int Gen.(frequency [ (1, int_range 0 64); (1, int_range 0 4097) ])))

let pattern_slice (seed, (off, len)) =
  Payload.sub (Payload.pattern ~seed (off + len)) ~pos:off ~len

(* The offset is also the slice's start inside the buffer, so the
   kernel's 8-byte reads land at every alignment. *)
let prop_payload_bytes_digest_reference =
  QCheck.Test.make ~name:"payload: bytes digest equals the per-byte fold" ~count:500
    QCheck.(pair (string_of_size Gen.(return (15 + 4097))) slice_gen)
    (fun (s, (off, len)) ->
      let p = Payload.sub (Payload.of_string s) ~pos:off ~len in
      Payload.digest p = reference_digest p)

let prop_payload_pattern_to_string =
  QCheck.Test.make ~name:"payload: pattern to_string matches byte_at" ~count:500
    QCheck.(pair int64 slice_gen)
    (fun arg ->
      let p = pattern_slice arg in
      Payload.to_string p = String.init (Payload.length p) (Payload.byte_at p))

(* qcheck: [splice] against the three [sub]s and [concat] it replaces.
   A generated payload is a list of stretches [(kind, start, len)]: kinds
   0 and 1 are two pattern streams, 2 a shared buffer, 3 zeros, and 4
   carries on the previous stretch's source where it stopped, so that
   neighbours merge as they do in real payloads. *)
let splice_buffer = Bytes.init 1024 (fun i -> Char.unsafe_chr ((i * 37) land 0xff))

let stretch_source kind start len =
  match kind with
  | 0 | 1 -> Payload.sub (Payload.pattern ~seed:(Int64.of_int (kind + 11)) 1024) ~pos:start ~len
  | 2 -> Payload.sub (Payload.of_bytes splice_buffer) ~pos:start ~len
  | _ -> Payload.zero len

(* The stretches with every kind 4 replaced by the source it carries on. *)
let resolve_stretches stretches =
  let _, resolved =
    List.fold_left
      (fun (prev, acc) (kind, start, len) ->
        let kind, start =
          match (kind, prev) with
          | 4, Some (k, stop) -> (k, stop)
          | 4, None -> (3, start)
          | _ -> (kind, start)
        in
        (Some (kind, start + len), (kind, start, len) :: acc))
      (None, []) stretches
  in
  List.rev resolved

let payload_of_stretches stretches =
  Payload.concat
    (List.map (fun (kind, start, len) -> stretch_source kind start len) (resolve_stretches stretches))

(* The stretch boundaries: every segment edge is one of them. *)
let stretch_edges stretches =
  List.rev (List.fold_left (fun acc (_, _, len) -> (List.hd acc + len) :: acc) [ 0 ] stretches)

let stretches_gen lo hi =
  QCheck.Gen.(list_size (int_range lo hi) (triple (int_bound 4) (int_bound 64) (int_range 1 32)))

(* [(base, patch source, (pos, stop, other) selectors, mode, digest base
   first)]. Mode 0 cuts the patch from [base] at [pos], so the rebuild
   has [base]'s segments; mode 1 cuts it from [base] elsewhere; mode 2
   from an unrelated payload. *)
let splice_case_gen =
  QCheck.Gen.(
    tup5 (stretches_gen 1 6) (stretches_gen 1 4) (triple nat nat nat) (int_bound 2) bool)

(* An even selector picks a stretch edge at or after [lo] (or the end),
   an odd one any offset in [\[lo, n\]]. *)
let pick_offset edges n sel lo =
  if sel land 1 = 0 then
    let cands = List.filter (fun e -> e >= lo) edges in
    List.nth cands (sel / 2 mod List.length cands)
  else lo + (sel / 2 mod (n - lo + 1))

let splice_case (base_st, patch_st, (pos_sel, stop_sel, other_sel), mode, digest_first) =
  let base = payload_of_stretches base_st in
  let n = Payload.length base and edges = stretch_edges base_st in
  let pos = pick_offset edges n pos_sel 0 in
  let plen = pick_offset edges n stop_sel pos - pos in
  let patch =
    match mode with
    | 0 -> Payload.sub base ~pos ~len:plen
    | 1 -> Payload.sub base ~pos:(other_sel mod (n - plen + 1)) ~len:plen
    | _ ->
        let src = payload_of_stretches patch_st in
        Payload.sub src ~pos:0 ~len:(min plen (Payload.length src))
  in
  if digest_first then ignore (Payload.digest base);
  (base, pos, patch)

let print_splice_case case =
  let base, pos, patch = splice_case case in
  Fmt.str "base=%a pos=%d patch=%a" Payload.pp base pos Payload.pp patch

let prop_payload_splice_matches_concat =
  QCheck.Test.make ~name:"payload: splice matches the concat of three subs" ~count:1000
    (QCheck.make ~print:print_splice_case splice_case_gen)
    (fun case ->
      let base, pos, patch = splice_case case in
      let stop = pos + Payload.length patch in
      let expected =
        Payload.concat
          [
            Payload.sub base ~pos:0 ~len:pos;
            patch;
            Payload.sub base ~pos:stop ~len:(Payload.length base - stop);
          ]
      in
      let actual = Payload.splice base ~pos patch in
      (* The digest and what taking it adds to [hashed_bytes]. *)
      let digest_cost p =
        let before = Payload.hashed_bytes () in
        let d = Payload.digest p in
        (d, Payload.hashed_bytes () - before)
      in
      let show = Fmt.str "%a" Payload.pp in
      Payload.to_string actual = Payload.to_string expected
      && show actual = show expected
      && (actual == expected || digest_cost actual = digest_cost expected))

(* qcheck: the digest contract across structures. The stretches of
   [payload_of_stretches] are built a second way: each pattern stretch
   from an alias, stream [seed - k] at [start + 8k] with k in 0..3 (the
   same bytes, see [Payload.pattern]; the two streams, seeds 11 and 12,
   alias each other too), spliced into zeros in reverse order, inside
   padding that a final [sub] cuts away. *)
let aliased_build (stretches, (shifts, padded)) =
  let resolved = resolve_stretches stretches in
  let n = List.fold_left (fun n (_, _, len) -> n + len) 0 resolved in
  let pad = if padded then 5 else 0 in
  let placed, _ =
    List.fold_left
      (fun (acc, (pos, i)) (kind, start, len) ->
        let piece =
          match kind with
          | 0 | 1 ->
              let k = (shifts lsr (2 * i)) land 3 in
              Payload.sub
                (Payload.pattern ~seed:(Int64.of_int (kind + 11 - k)) (start + (8 * k) + len))
                ~pos:(start + (8 * k))
                ~len
          | _ -> stretch_source kind start len
        in
        ((pad + pos, piece) :: acc, (pos + len, i + 1)))
      ([], (0, 0))
      resolved
  in
  let frame =
    Payload.concat [ Payload.pattern ~seed:99L pad; Payload.zero n; Payload.of_string "tail" ]
  in
  let spliced = List.fold_left (fun p (pos, piece) -> Payload.splice p ~pos piece) frame placed in
  Payload.sub spliced ~pos:pad ~len:n

let prop_payload_equal_bytes_equal_digest =
  QCheck.Test.make ~name:"payload: equal bytes give equal digests across builds" ~count:500
    (QCheck.make
       ~print:(fun ((stretches, _) as case) ->
         Fmt.str "%a vs %a" Payload.pp (payload_of_stretches stretches) Payload.pp
           (aliased_build case))
       QCheck.Gen.(pair (stretches_gen 1 8) (pair (int_bound 0xFFFF) bool)))
    (fun ((stretches, _) as case) ->
      let a = payload_of_stretches stretches and b = aliased_build case in
      Payload.to_string a = Payload.to_string b && Payload.digest a = Payload.digest b)

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.0) string))))
    "sorted" [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ] order

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order" (List.init 10 Fun.id) order

let test_event_queue_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair (float 0.0) int))) "pop none" None (Event_queue.pop q);
  Alcotest.(check (option (float 0.0))) "peek none" None (Event_queue.peek_time q)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue: pops are time-sorted" ~count:100
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> Event_queue.add q ~time ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* Schedule policies: the mixed-time workload used by the policy tests —
   three runs of simultaneous events separated by distinct times. *)
let schedule_workload q =
  List.iteri
    (fun i time -> Event_queue.add q ~time (i, time))
    [ 1.0; 1.0; 1.0; 1.0; 0.5; 2.0; 2.0; 2.0; 1.5 ]

let drain q =
  let rec go acc =
    match Event_queue.pop q with None -> List.rev acc | Some (_, v) -> go (v :: acc)
  in
  go []

let pops schedule =
  let q = Event_queue.create ~schedule () in
  schedule_workload q;
  drain q

let test_schedule_fifo_matches_default () =
  (* Fifo is the default, and both are byte-identical to historical
     insertion-order behavior. *)
  let dflt =
    let q = Event_queue.create () in
    schedule_workload q;
    drain q
  in
  Alcotest.(check (list (pair int (float 0.0)))) "fifo = default" dflt (pops Event_queue.Fifo);
  Alcotest.(check (list int)) "insertion order within ties"
    [ 4; 0; 1; 2; 3; 8; 5; 6; 7 ]
    (List.map fst dflt)

let test_schedule_lifo_reverses_ties () =
  Alcotest.(check (list int)) "reverse insertion order within ties"
    [ 4; 3; 2; 1; 0; 8; 7; 6; 5 ]
    (List.map fst (pops Event_queue.Lifo))

let test_schedule_shuffle_permutes_within_ties () =
  (* Any seed: time order is preserved, and each same-time run pops a
     permutation of exactly the events inserted at that time. *)
  List.iter
    (fun seed ->
      let order = pops (Event_queue.Seeded_shuffle seed) in
      Alcotest.(check (list (float 0.0)))
        (Fmt.str "times sorted (seed %d)" seed)
        [ 0.5; 1.0; 1.0; 1.0; 1.0; 1.5; 2.0; 2.0; 2.0 ]
        (List.map snd order);
      let bucket t =
        List.filter_map (fun (i, time) -> if time = t then Some i else None) order
      in
      Alcotest.(check (list int))
        (Fmt.str "t=1.0 run is a permutation (seed %d)" seed)
        [ 0; 1; 2; 3 ]
        (List.sort Int.compare (bucket 1.0));
      Alcotest.(check (list int))
        (Fmt.str "t=2.0 run is a permutation (seed %d)" seed)
        [ 5; 6; 7 ]
        (List.sort Int.compare (bucket 2.0)))
    [ 0; 1; 7; 42; 1337 ]

let test_schedule_shuffle_deterministic () =
  Alcotest.(check (list (pair int (float 0.0))))
    "same seed, same pop order"
    (pops (Event_queue.Seeded_shuffle 7))
    (pops (Event_queue.Seeded_shuffle 7));
  (* Some pair of distinct seeds must disagree — shuffling that never
     shuffles would be vacuous. *)
  let orders = List.map (fun s -> pops (Event_queue.Seeded_shuffle s)) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "distinct seeds can disagree" true
    (List.exists (fun o -> o <> List.hd orders) orders)

(* Differential check of the queue against a reference: a list kept in
   [(time, rank, seq)] order. The operations mix adds at exactly the last
   popped time (the same-instant lane under Fifo), adds earlier than it,
   and ties at a handful of shared times. *)
type eq_op = Add_at_last | Add_earlier | Add_at of int | Add_random of float | Pop | Take

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, return Add_at_last); (1, return Add_earlier); (3, map (fun k -> Add_at k) (int_bound 8));
        (1, map (fun f -> Add_random f) (float_bound_exclusive 4.0)); (3, return Pop);
        (2, return Take) ])

let eq_op_print = function
  | Add_at_last -> "add@last"
  | Add_earlier -> "add@earlier"
  | Add_at k -> Fmt.str "add@%d" k
  | Add_random f -> Fmt.str "add@%h" f
  | Pop -> "pop"
  | Take -> "take"

let eq_ops_arb =
  QCheck.make
    ~print:(QCheck.Print.list eq_op_print)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 300) eq_op_gen)

let reference_rank schedule seq =
  match schedule with
  | Event_queue.Fifo -> seq
  | Event_queue.Lifo -> -seq
  | Event_queue.Seeded_shuffle seed -> Rng.rank ~seed seq

let queue_matches_reference schedule ops =
  let q = Event_queue.create ~schedule () in
  let reference = ref [] (* (time, rank, seq), sorted *) in
  let next_seq = ref 0 and last = ref 0.0 in
  let before (ta, ra, sa) (tb, rb, sb) = ta < tb || (ta = tb && (ra < rb || (ra = rb && sa < sb))) in
  let rec insert k = function
    | [] -> [ k ]
    | x :: rest as l -> if before k x then k :: l else x :: insert k rest
  in
  let add time =
    let seq = !next_seq in
    incr next_seq;
    Event_queue.add q ~time seq;
    reference := insert (time, reference_rank schedule seq, seq) !reference;
    true
  in
  let agrees () =
    Event_queue.length q = List.length !reference
    && Event_queue.is_empty q = (!reference = [])
    && Event_queue.peek_time q
       = match !reference with [] -> None | (time, _, _) :: _ -> Some time
  in
  let pop via =
    let got =
      match via with
      | `Pop -> Event_queue.pop q
      | `Take ->
          if Event_queue.is_empty q then None
          else
            let time = Event_queue.next_time q in
            Some (time, Event_queue.take q)
    in
    match (got, !reference) with
    | None, [] -> true
    | Some (time, seq), (time', _, seq') :: rest ->
        reference := rest;
        last := time;
        time = time' && seq = seq'
    | _ -> false
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Add_at_last -> add !last
        | Add_earlier -> add (!last -. 0.5)
        | Add_at k -> add (float_of_int k *. 0.5)
        | Add_random f -> add f
        | Pop -> pop `Pop
        | Take -> pop `Take
      in
      ok && agrees ())
    ops
  && List.for_all (fun _ -> pop `Pop && agrees ()) (List.init (Event_queue.length q + 1) Fun.id)

let prop_event_queue_matches_reference schedule =
  QCheck.Test.make
    ~name:(Fmt.str "event queue: same pops as a sorted reference (%a)" Event_queue.pp_schedule
             schedule)
    ~count:300 eq_ops_arb (queue_matches_reference schedule)

(* Fill a queue through both the heap and the same-instant lane, drain it,
   and return it with weak pointers to everything that went through it. *)
let churn_queue schedule n =
  let weak = Weak.create (2 * n) in
  let q = Event_queue.create ~schedule () in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Event_queue.add q ~time:(float_of_int (i mod 7)) v
  done;
  ignore (Sys.opaque_identity (Event_queue.pop q));
  for i = n to (2 * n) - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    Event_queue.add q ~time:0.0 v
  done;
  while not (Event_queue.is_empty q) do
    ignore (Sys.opaque_identity (Event_queue.pop q))
  done;
  (q, weak)

let test_event_queue_releases_popped () =
  List.iter
    (fun schedule ->
      let q, weak = churn_queue schedule 1024 in
      Gc.full_major ();
      (* The drained queue itself must stay alive across the collection. *)
      ignore (Sys.opaque_identity q);
      let retained = ref 0 in
      for i = 0 to Weak.length weak - 1 do
        if Weak.check weak i then incr retained
      done;
      Alcotest.(check int)
        (Fmt.str "popped values still reachable (%a)" Event_queue.pp_schedule schedule)
        0 !retained)
    [ Event_queue.Fifo; Event_queue.Lifo ]

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let log = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        log := (Engine.now e, "start") :: !log;
        Engine.sleep e 5.0;
        log := (Engine.now e, "mid") :: !log;
        Engine.sleep e 2.5;
        log := (Engine.now e, "end") :: !log)
  in
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "timeline"
    [ (0.0, "start"); (5.0, "mid"); (7.5, "end") ]
    (List.rev !log)

let test_engine_interleaving_deterministic () =
  let run_once () =
    let e = Engine.create () in
    let log = ref [] in
    let mk name delays =
      ignore
        (Engine.Fiber.spawn e ~name (fun () ->
             List.iter
               (fun d ->
                 Engine.sleep e d;
                 log := Fmt.str "%s@%.1f" name (Engine.now e) :: !log)
               delays))
    in
    mk "a" [ 1.0; 2.0 ];
    mk "b" [ 2.0; 2.0 ];
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string))
    "expected interleaving"
    [ "a@1.0"; "b@2.0"; "a@3.0"; "b@4.0" ]
    (run_once ());
  Alcotest.(check (list string)) "reproducible" (run_once ()) (run_once ())

let test_engine_fiber_failure_surfaces () =
  let e = Engine.create () in
  let _ = Engine.Fiber.spawn e ~name:"boom" (fun () -> failwith "kaput") in
  Alcotest.check_raises "failure raised"
    (Engine.Fiber_failure ("boom", Failure "kaput"))
    (fun () -> Engine.run e)

let test_engine_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        for _ = 1 to 10 do
          Engine.sleep e 1.0;
          incr hits
        done)
  in
  Engine.run_until e 4.5;
  Alcotest.(check int) "partial" 4 !hits;
  check_float "clock at limit" 4.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest" 10 !hits

let test_engine_at_callback () =
  let e = Engine.create () in
  let fired = ref (-1.0) in
  Engine.at e 3.25 (fun () -> fired := Engine.now e);
  Engine.run e;
  check_float "fired at" 3.25 !fired

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  let got = ref 0 in
  let _ = Engine.Fiber.spawn e (fun () -> got := Engine.Ivar.read iv) in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 2.0;
        Engine.Ivar.fill iv 42)
  in
  Engine.run e;
  Alcotest.(check int) "value" 42 !got

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  Engine.Ivar.fill iv "x";
  let got = ref "" in
  let _ = Engine.Fiber.spawn e (fun () -> got := Engine.Ivar.read iv) in
  Engine.run e;
  Alcotest.(check string) "value" "x" !got

let test_ivar_double_fill_rejected () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  Engine.Ivar.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Engine.Ivar.fill iv 2)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  let sum = ref 0 in
  for _ = 1 to 5 do
    ignore (Engine.Fiber.spawn e (fun () -> sum := !sum + Engine.Ivar.read iv))
  done;
  let _ = Engine.Fiber.spawn e (fun () -> Engine.sleep e 1.0; Engine.Ivar.fill iv 10) in
  Engine.run e;
  Alcotest.(check int) "all woken" 50 !sum

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create e in
  let got = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        for _ = 1 to 3 do
          got := Engine.Mailbox.recv mb :: !got
        done)
  in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        List.iter
          (fun v ->
            Engine.sleep e 1.0;
            Engine.Mailbox.send mb v)
          [ 1; 2; 3 ])
  in
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_buffered_before_recv () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create e in
  Engine.Mailbox.send mb "a";
  Engine.Mailbox.send mb "b";
  Alcotest.(check int) "buffered" 2 (Engine.Mailbox.length mb);
  let got = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        let first = Engine.Mailbox.recv mb in
        let second = Engine.Mailbox.recv mb in
        got := [ first; second ])
  in
  Engine.run e;
  Alcotest.(check (list string)) "drained" [ "a"; "b" ] !got

let test_semaphore_limits_concurrency () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Engine.Fiber.spawn e (fun () ->
           Engine.Semaphore.with_held sem (fun () ->
               incr active;
               peak := max !peak !active;
               Engine.sleep e 1.0;
               decr active)))
  done;
  Engine.run e;
  Alcotest.(check int) "peak concurrency" 2 !peak;
  check_float "three waves" 3.0 (Engine.now e)

let test_semaphore_release_on_exception () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 1 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        (try Engine.Semaphore.with_held sem (fun () -> failwith "die") with
        | Failure _ -> ());
        Engine.Semaphore.with_held sem (fun () -> ()))
  in
  Engine.run e;
  Alcotest.(check int) "token back" 1 (Engine.Semaphore.available sem)

let test_fiber_join () =
  let e = Engine.create () in
  let order = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        let child =
          Engine.Fiber.spawn e (fun () ->
              Engine.sleep e 3.0;
              order := "child" :: !order)
        in
        Engine.Fiber.join child;
        order := "parent" :: !order)
  in
  Engine.run e;
  Alcotest.(check (list string)) "join waits" [ "child"; "parent" ] (List.rev !order)

let test_fiber_cancel_blocked () =
  let e = Engine.create () in
  let cancelled_at = ref (-1.0) and reached = ref false in
  let victim =
    Engine.Fiber.spawn e ~name:"victim" (fun () ->
        (try Engine.sleep e 100.0
         with Engine.Cancelled as exn ->
           cancelled_at := Engine.now e;
           raise exn);
        reached := true)
  in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        Engine.Fiber.cancel victim)
  in
  Engine.run e;
  check_float "cancelled at 1s, not 100s" 1.0 !cancelled_at;
  Alcotest.(check bool) "body aborted" false !reached;
  Alcotest.(check bool) "finished" true (Engine.Fiber.is_finished victim)

(* A cancelled sleeper's timer stays queued; when a drain pops it, it
   wakes nothing and leaves the clock where the last live event ran. The
   queue still remembers the pop at 100 s, so events added after the
   drain, at 1 s and at 100 s, must still run in (time, insertion) order. *)
let test_cancelled_sleeper_keeps_clock () =
  let e = Engine.create () in
  let victim = Engine.Fiber.spawn e (fun () -> Engine.sleep e 100.0) in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        Engine.Fiber.cancel victim)
  in
  Engine.run e;
  check_float "clock after drain" 1.0 (Engine.now e);
  let log = ref [] in
  let note name = log := (name, Engine.now e) :: !log in
  Engine.at e 100.0 (fun () -> note "at-100");
  let _ =
    Engine.Fiber.spawn e (fun () ->
        note "start";
        Engine.sleep e 49.0;
        note "slept-49";
        Engine.at e 100.0 (fun () -> note "at-100-from-fiber");
        Engine.sleep e 50.0;
        note "slept-50")
  in
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order after the drain"
    [ ("start", 1.0); ("slept-49", 50.0); ("at-100", 100.0); ("at-100-from-fiber", 100.0);
      ("slept-50", 100.0) ]
    (List.rev !log);
  check_float "clock after second drain" 100.0 (Engine.now e)

let test_fiber_cancel_before_start () =
  let e = Engine.create () in
  let ran = ref false in
  let f = Engine.Fiber.spawn e (fun () -> ran := true) in
  Engine.Fiber.cancel f;
  Engine.run e;
  Alcotest.(check bool) "never ran" false !ran

let test_fiber_cancel_outcome () =
  let e = Engine.create () in
  let victim = Engine.Fiber.spawn e (fun () -> Engine.sleep e 10.0) in
  let outcome = ref Engine.Fiber.Completed in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        Engine.Fiber.cancel victim;
        outcome := Engine.Fiber.await victim)
  in
  Engine.run e;
  Alcotest.(check bool) "cancelled outcome" true (!outcome = Engine.Fiber.Cancelled_outcome)

let test_group_cancel () =
  let e = Engine.create () in
  let group = Engine.Group.create () in
  let survivors = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Engine.Fiber.spawn e ~group (fun () ->
           Engine.sleep e 50.0;
           incr survivors))
  done;
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 5.0;
        Engine.Group.cancel e group)
  in
  Engine.run_until e 6.0;
  Alcotest.(check int) "group live after cancel" 0 (Engine.Group.live group);
  Engine.run e;
  Alcotest.(check int) "all killed" 0 !survivors

let test_engine_all_barrier () =
  let e = Engine.create () in
  let finished_at = ref 0.0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.all e
          [ (fun () -> Engine.sleep e 1.0); (fun () -> Engine.sleep e 7.0);
            (fun () -> Engine.sleep e 3.0) ];
        finished_at := Engine.now e)
  in
  Engine.run e;
  check_float "barrier waits for slowest" 7.0 !finished_at

let test_cancelled_semaphore_waiter_does_not_eat_token () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 1 in
  let got_token = ref false in
  let _ =
    Engine.Fiber.spawn e ~name:"holder" (fun () ->
        Engine.Semaphore.with_held sem (fun () -> Engine.sleep e 10.0))
  in
  let waiter =
    Engine.Fiber.spawn e ~name:"waiter" (fun () ->
        Engine.sleep e 1.0;
        Engine.Semaphore.acquire sem)
  in
  let _ =
    Engine.Fiber.spawn e ~name:"late" (fun () ->
        Engine.sleep e 5.0;
        Engine.Fiber.cancel waiter;
        Engine.Semaphore.acquire sem;
        got_token := true)
  in
  Engine.run e;
  Alcotest.(check bool) "token reached late fiber" true !got_token;
  Alcotest.(check int) "nobody blocked" 0 (Engine.blocked_fibers e)

(* Resumers are one-shot: a second call, a call after cancellation, or a
   call to a stale resumer from an earlier suspension all return false. *)
let test_resumer_one_shot () =
  let e = Engine.create () in
  let resumers = ref [] and got = ref [] in
  let park () = Engine.suspend (fun resume -> resumers := resume :: !resumers) in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        got := park () :: !got;
        got := park () :: !got)
  in
  Engine.run e;
  Alcotest.(check int) "parked" 1 (Engine.blocked_fibers e);
  let first = List.hd !resumers in
  Alcotest.(check bool) "first resume" true (first 1);
  Alcotest.(check bool) "second resume" false (first 2);
  Alcotest.(check int) "unparked" 0 (Engine.blocked_fibers e);
  Engine.run e;
  Alcotest.(check int) "parked again" 1 (Engine.blocked_fibers e);
  Alcotest.(check bool) "stale resumer" false (first 3);
  Alcotest.(check bool) "fresh resumer" true ((List.hd !resumers) 4);
  Engine.run e;
  Alcotest.(check (list int)) "values delivered" [ 1; 4 ] (List.rev !got);
  Alcotest.(check int) "live" 0 (Engine.live_fibers e)

let test_resume_after_cancel () =
  let e = Engine.create () in
  let resumer = ref (fun (_ : int) -> true) in
  let victim = Engine.Fiber.spawn e (fun () -> ignore (Engine.suspend (fun r -> resumer := r))) in
  let outcome = ref None in
  let _ = Engine.Fiber.spawn e (fun () -> outcome := Some (Engine.Fiber.await victim)) in
  Engine.run e;
  Engine.Fiber.cancel victim;
  Alcotest.(check bool) "resume after cancel" false (!resumer 1);
  Alcotest.(check int) "only the watcher parked" 1 (Engine.blocked_fibers e);
  Engine.run e;
  Alcotest.(check int) "nobody blocked" 0 (Engine.blocked_fibers e);
  Alcotest.(check bool) "cancelled outcome" true (!outcome = Some Engine.Fiber.Cancelled_outcome);
  Alcotest.(check int) "live" 0 (Engine.live_fibers e)

let test_blocked_fibers_counter () =
  let e = Engine.create () in
  let iv : unit Engine.Ivar.t = Engine.Ivar.create e in
  for _ = 1 to 3 do
    ignore (Engine.Fiber.spawn e (fun () -> Engine.Ivar.read iv))
  done;
  Engine.run e;
  Alcotest.(check int) "blocked" 3 (Engine.blocked_fibers e);
  Alcotest.(check int) "live" 3 (Engine.live_fibers e)

(* Two pipelines push items through two shared rate servers, either as
   fibers calling [Rate_server.process] or as callback chains posted at
   the same point and built from [Rate_server.process_then]. Noise fibers
   wake at instants the services end on. Both forms must log the same
   steps at the same instants in the same order, under every schedule:
   the callback forms take the fiber forms' insertion indexes. *)
let stage_log ~callbacks schedule =
  let e = Engine.create ~schedule () in
  let a = Rate_server.create e ~rate:4.0 () and b = Rate_server.create e ~rate:2.0 () in
  let log = Buffer.create 1024 in
  let note fmt =
    Fmt.kstr (fun s -> Buffer.add_string log (Fmt.str "%h %s\n" (Engine.now e) s)) fmt
  in
  for i = 0 to 3 do
    ignore
      (Engine.Fiber.spawn e (fun () ->
           for r = 1 to 16 do
             Engine.sleep e 0.25;
             note "noise %d.%d" i r
           done))
  done;
  let pipeline p items =
    if callbacks then
      Engine.post e (fun () ->
          let rec go = function
            | [] -> note "%d done" p
            | n :: rest ->
                Rate_server.process_then a n (fun () ->
                    note "%d: a served %d" p n;
                    Rate_server.process_then b n (fun () ->
                        note "%d: b served %d" p n;
                        go rest))
          in
          go items)
    else
      ignore
        (Engine.Fiber.spawn e (fun () ->
             List.iter
               (fun n ->
                 Rate_server.process a n;
                 note "%d: a served %d" p n;
                 Rate_server.process b n;
                 note "%d: b served %d" p n)
               items;
             note "%d done" p))
  in
  pipeline 0 [ 1; 2; 1; 3; 1 ];
  pipeline 1 [ 2; 1; 1; 1 ];
  Engine.run e;
  note "a: %h busy, %d ops; b: %h busy, %d ops" (Rate_server.busy_time a) (Rate_server.ops a)
    (Rate_server.busy_time b) (Rate_server.ops b);
  Buffer.contents log

let test_callback_stage_matches_fiber () =
  List.iter
    (fun schedule ->
      Alcotest.(check string)
        (Fmt.str "same log under %a" Event_queue.pp_schedule schedule)
        (stage_log ~callbacks:false schedule) (stage_log ~callbacks:true schedule))
    [ Event_queue.Fifo; Event_queue.Lifo; Event_queue.Seeded_shuffle 7; Event_queue.Seeded_shuffle 8 ]

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_series () =
  let s = Stats.series "a" in
  Stats.add s ~x:1.0 ~y:10.0;
  Stats.add s ~x:2.0 ~y:20.0;
  Alcotest.(check (option (float 0.0))) "lookup" (Some 20.0) (Stats.y_at s ~x:2.0);
  Alcotest.(check (option (float 0.0))) "missing" None (Stats.y_at s ~x:3.0)

let test_stats_render_table () =
  let a = Stats.series "alpha" and b = Stats.series "beta" in
  Stats.add a ~x:1.0 ~y:1.5;
  Stats.add b ~x:1.0 ~y:2.5;
  Stats.add a ~x:2.0 ~y:3.5;
  let t = Stats.table ~title:"t" ~x_label:"x" ~y_label:"y" [ a; b ] in
  let rendered = Stats.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 2 = "==");
  (* beta has no point at x=2: rendered as "-" *)
  Alcotest.(check bool) "hole marker" true
    (String.split_on_char '\n' rendered |> List.exists (fun l ->
         String.length l > 0
         && String.trim l <> ""
         && String.split_on_char ' ' l |> List.filter (( <> ) "") |> fun cells ->
            cells = [ "2"; "3.50"; "-" ]))

let test_stats_csv () =
  let a = Stats.series "s" in
  Stats.add a ~x:1.0 ~y:2.0;
  let t = Stats.table ~title:"t" ~x_label:"n" ~y_label:"y" [ a ] in
  Alcotest.(check string) "csv" "n,s\n1,2\n" (Stats.to_csv t)

let test_stats_aggregates () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean [])

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_capture () =
  let e = Engine.create () in
  let (), lines =
    Trace.capture (fun () ->
        let _ =
          Engine.Fiber.spawn e (fun () ->
              Engine.sleep e 1.5;
              Trace.emit e ~component:"unit" "hello %d" 42)
        in
        Engine.run e)
  in
  Alcotest.(check (list string)) "captured" [ "t=1.500000s [unit] hello 42" ] lines;
  Alcotest.(check bool) "sink restored" false (Trace.enabled ())

let test_trace_disabled_is_silent () =
  let e = Engine.create () in
  Trace.emit e ~component:"unit" "not recorded %s" "x";
  Alcotest.(check bool) "disabled" false (Trace.enabled ())

(* ------------------------------------------------------------------ *)
(* Teardown audits: every structure registers its own check at creation,
   so a corrupted image fails [Engine.run] in any binary. *)

let test_engine_teardown_audit () =
  let was = Engine.audits_enabled () in
  Fun.protect ~finally:(fun () -> Engine.set_audits_enabled was) @@ fun () ->
  Engine.set_audits_enabled true;
  let engine = Engine.create () in
  let host = Netsim.Net.add_host (Netsim.Net.create engine Netsim.Net.default_config) ~name:"n0" in
  let local_disk = Storage.Disk.create engine ~name:"d0" () in
  let _ =
    Engine.Fiber.spawn engine (fun () ->
        let q =
          Vdisk.Qcow2.create engine ~host ~local_disk ~cluster_size:256 ~capacity:4096
            ~backing:Vdisk.Qcow2.No_backing ~name:"q" ()
        in
        Vdisk.Qcow2.write q ~offset:0 (Payload.of_string (String.make 512 'a'));
        Vdisk.Qcow2.unsafe_set_refcount q ~phys:0 7)
  in
  match Engine.run engine with
  | () -> Alcotest.fail "expected Audit_failure at teardown"
  | exception Engine.Audit_failure (subject, violations) ->
      Alcotest.(check (pair string (list string))) "refcount violation named"
        ( "qcow2:q",
          [ {|qcow2:q: invariant "refcount" violated: physical cluster 0: stored refcount 7, 1 references|} ]
        )
        (subject, violations)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "simcore"
    [
      ( "invariants",
        [
          Alcotest.test_case "engine teardown raises Audit_failure" `Quick
            test_engine_teardown_audit;
        ] );
      ( "size",
        [
          Alcotest.test_case "constants" `Quick test_size_constants;
          Alcotest.test_case "rounding" `Quick test_size_rounding;
          Alcotest.test_case "pretty printing" `Quick test_size_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "payload",
        [
          Alcotest.test_case "basics" `Quick test_payload_basics;
          Alcotest.test_case "zero" `Quick test_payload_zero;
          Alcotest.test_case "sub" `Quick test_payload_sub;
          Alcotest.test_case "concat" `Quick test_payload_concat;
          Alcotest.test_case "pattern determinism" `Quick test_payload_pattern_deterministic;
          Alcotest.test_case "pattern slicing" `Quick test_payload_pattern_slicing;
          Alcotest.test_case "mixed representation equality" `Quick test_payload_equal_mixed_repr;
          Alcotest.test_case "digest respects equality" `Quick test_payload_digest_matches_equal;
          Alcotest.test_case "zero digest closed form" `Quick test_payload_digest_zero_closed_form;
          Alcotest.test_case "to_string guard" `Quick test_payload_to_string_guard;
          Alcotest.test_case "pattern byte_at purity" `Quick test_payload_pattern_byte_at_pure;
          Alcotest.test_case "golden digests" `Quick test_payload_golden_digests;
          Alcotest.test_case "hashed_bytes accounting" `Quick
            test_payload_hashed_bytes_accounting;
        ]
        @ qsuite
            [ prop_payload_slice_concat; prop_payload_digest_agrees_with_equal;
              prop_payload_equal_bytes_equal_digest; prop_payload_bytes_digest_reference;
              prop_payload_pattern_to_string; prop_payload_splice_matches_concat ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_event_queue_order;
          Alcotest.test_case "fifo on ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "empty queue" `Quick test_event_queue_empty;
          Alcotest.test_case "fifo matches default" `Quick test_schedule_fifo_matches_default;
          Alcotest.test_case "lifo reverses ties" `Quick test_schedule_lifo_reverses_ties;
          Alcotest.test_case "shuffle permutes within ties" `Quick
            test_schedule_shuffle_permutes_within_ties;
          Alcotest.test_case "shuffle deterministic per seed" `Quick
            test_schedule_shuffle_deterministic;
          Alcotest.test_case "popped values released" `Quick test_event_queue_releases_popped;
        ]
        @ qsuite
            [ prop_event_queue_sorted; prop_event_queue_matches_reference Event_queue.Fifo;
              prop_event_queue_matches_reference Event_queue.Lifo;
              prop_event_queue_matches_reference (Event_queue.Seeded_shuffle 7) ] );
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_engine_time_advances;
          Alcotest.test_case "deterministic interleaving" `Quick
            test_engine_interleaving_deterministic;
          Alcotest.test_case "fiber failure surfaces" `Quick test_engine_fiber_failure_surfaces;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "at callback" `Quick test_engine_at_callback;
          Alcotest.test_case "all barrier" `Quick test_engine_all_barrier;
          Alcotest.test_case "blocked fiber count" `Quick test_blocked_fibers_counter;
          Alcotest.test_case "resumer is one-shot" `Quick test_resumer_one_shot;
          Alcotest.test_case "resume after cancel" `Quick test_resume_after_cancel;
          Alcotest.test_case "callback stage takes the fiber's steps" `Quick
            test_callback_stage_matches_fiber;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "buffered before recv" `Quick test_mailbox_buffered_before_recv;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "limits concurrency" `Quick test_semaphore_limits_concurrency;
          Alcotest.test_case "release on exception" `Quick test_semaphore_release_on_exception;
          Alcotest.test_case "cancelled waiter keeps token" `Quick
            test_cancelled_semaphore_waiter_does_not_eat_token;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "join" `Quick test_fiber_join;
          Alcotest.test_case "cancel blocked fiber" `Quick test_fiber_cancel_blocked;
          Alcotest.test_case "cancelled sleeper keeps clock" `Quick
            test_cancelled_sleeper_keeps_clock;
          Alcotest.test_case "cancel before start" `Quick test_fiber_cancel_before_start;
          Alcotest.test_case "cancel outcome" `Quick test_fiber_cancel_outcome;
          Alcotest.test_case "group cancel" `Quick test_group_cancel;
        ] );
      ( "stats",
        [
          Alcotest.test_case "series" `Quick test_stats_series;
          Alcotest.test_case "render table" `Quick test_stats_render_table;
          Alcotest.test_case "csv" `Quick test_stats_csv;
          Alcotest.test_case "aggregates" `Quick test_stats_aggregates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "capture" `Quick test_trace_capture;
          Alcotest.test_case "disabled is silent" `Quick test_trace_disabled_is_silent;
        ] );
    ]
