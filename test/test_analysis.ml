(* Tests for the analysis subsystem: the source lint rules (positive and
   pragma-suppressed cases) and the replay-divergence checker. *)

open Simcore
open Storage
open Analysis

(* ------------------------------------------------------------------ *)
(* Lint: rule positives, forgiveness and pragmas *)

let rules findings = List.map (fun f -> f.Lint.rule) findings

let scan src = Lint.scan_source ~file:"fixture.ml" src

let test_lint_hashtbl_order () =
  Alcotest.(check (list string)) "unsorted fold flagged" [ "hashtbl-order" ]
    (rules (scan "let xs = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"));
  Alcotest.(check (list string)) "sort within window forgiven" []
    (rules
       (scan
          "let xs = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
           let xs = List.sort compare xs\n"));
  Alcotest.(check (list string)) "same-line pragma suppresses" []
    (rules
       (scan
          "let n = Hashtbl.fold (fun _ v a -> a + v) tbl 0 (* lint: allow \
           hashtbl-order — sum *)\n"));
  Alcotest.(check (list string)) "preceding-line pragma suppresses" []
    (rules
       (scan
          "(* lint: allow hashtbl-order — sum *)\n\
           let n = Hashtbl.fold (fun _ v a -> a + v) tbl 0\n"));
  Alcotest.(check (list string)) "pragma for another rule does not" [ "hashtbl-order" ]
    (rules
       (scan
          "let n = Hashtbl.fold (fun _ v a -> a + v) tbl 0 (* lint: allow \
           wall-clock *)\n"))

let test_lint_ambient_effects () =
  Alcotest.(check (list string)) "ambient Random flagged" [ "ambient-random" ]
    (rules (scan "let r = Random.int 6\n"));
  Alcotest.(check (list string)) "wall clock flagged" [ "wall-clock" ]
    (rules (scan "let t = Unix.gettimeofday ()\n"));
  Alcotest.(check (list string)) "Obj.magic flagged" [ "obj-magic" ]
    (rules (scan "let x = Obj.magic y\n"))

let test_lint_domains () =
  Alcotest.(check (list string)) "every primitive flagged"
    [ "domains"; "domains"; "domains"; "domains"; "domains" ]
    (rules
       (scan
          "let d = Domain.spawn f\n\
           let a = Atomic.make 0\n\
           let m = Mutex.create ()\n\
           let c = Condition.create ()\n\
           let t = Thread.self ()\n"));
  Alcotest.(check (list string)) "qualified path flagged" [ "domains" ]
    (rules (scan "let () = Stdlib.Domain.cpu_relax ()\n"));
  Alcotest.(check (list string)) "pragma with justification suppresses" []
    (rules (scan "let a = Atomic.make 0 (* lint: allow domains — a planted exception *)\n"));
  Alcotest.(check (list string)) "other modules accepted" []
    (rules (scan "let d = Fault_domain.make ()\nlet x = Stats.Atomic_counter.zero\n"))

let test_lint_catch_all () =
  Alcotest.(check (list string)) "both handler forms flagged" [ "catch-all"; "catch-all" ]
    (rules
       (scan
          "let a = try f () with _ -> 0\n\
           let b = match f () with v -> Some v | exception _ -> None\n"));
  Alcotest.(check (list string)) "named or bound handlers accepted" []
    (rules
       (scan
          "let a = try f () with Not_found -> 0\n\
           let b = match f () with v -> Ok v | exception e -> Error e\n"));
  Alcotest.(check (list string)) "pragma with justification suppresses" []
    (rules (scan "let a = try f () with _ -> 0 (* lint: allow catch-all — a planted case *)\n"))

let test_lint_strings_and_comments_inert () =
  Alcotest.(check (list string)) "needle inside a string literal" []
    (rules (scan "let s = \"Hashtbl.iter is risky\"\n"));
  Alcotest.(check (list string)) "needle inside a comment" []
    (rules (scan "(* avoid Random.int in simulations *)\nlet x = 1\n"));
  Alcotest.(check (list string)) "needle inside a quoted string" []
    (rules (scan "let s = {q|Unix.gettimeofday|q}\n"))

let test_lint_poly_compare () =
  Alcotest.(check (list string)) "bare compare near floats" [ "poly-compare" ]
    (rules (scan "let f (x : float) = x\nlet c a b = compare a b\n"));
  Alcotest.(check (list string)) "Float.compare accepted" []
    (rules (scan "let f (x : float) = x\nlet c a b = Float.compare a b\n"));
  Alcotest.(check (list string)) "bare compare without floats accepted" []
    (rules (scan "let c a b = compare a b\n"))

let test_lint_missing_mli () =
  Alcotest.(check (list string)) "ml without mli flagged" [ "missing-mli" ]
    (rules (Lint.missing_mli [ "lib/x/foo.ml" ]));
  Alcotest.(check (list string)) "ml with mli accepted" []
    (rules (Lint.missing_mli [ "lib/x/foo.ml"; "lib/x/foo.mli" ]))

(* unused-export over a planted tree: one library interface whose values
   are used from another library unit, bin/ and test/ in every form the
   rule recognises, plus mentions it must ignore. *)
let test_lint_unused_export () =
  let root = Filename.temp_dir "unused_export" "" in
  let write rel contents =
    let path = Filename.concat root rel in
    let rec mkdir d =
      if not (Sys.file_exists d) then begin
        mkdir (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdir (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  write "lib/a/alpha.mli"
    "val unused : int\n\
     (** No user outside this module. *)\n\n\
     val only_tests : int\n\
     (** Read by tests alone. *)\n\n\
     val stale : int\n\
     (** Test-only: but bin/ reads it. *)\n\n\
     val tagged : int\n\
     (** Test-only: an observer. *)\n\n\
     val via_open : int\n\
     (** Read through [open Alpha]. *)\n\n\
     val via_local_open : int\n\
     (** Read through [Alpha.( ... )]. *)\n\n\
     val excused : int (* lint: allow unused-export — kept for a stated reason *)\n\
     (** No user, but a reasoned pragma. *)\n\n\
     val unexcused : int (* lint: allow unused-export *)\n\
     (** No user, and a pragma without a reason. *)\n";
  write "lib/a/alpha.ml"
    "let unused = 1\nlet only_tests = unused\nlet stale = 3\nlet tagged = 4\n\
     let via_open = 5\nlet via_local_open = 6\nlet excused = 7\nlet unexcused = 8\n";
  write "lib/b/beta.ml" "open Alpha\n\nlet x = via_open\n";
  write "bin/main.ml"
    "(* Alpha.unused in a comment *)\n\
     let s = \"Alpha.unused in a string\"\n\
     let y = Alpha.stale + Alpha.(via_local_open * 2)\n";
  write "test/t.ml" "let z = Alpha.only_tests + A.Alpha.tagged\n";
  let found =
    List.filter_map
      (fun (f : Lint.finding) ->
        if f.rule = "unused-export" then Some (Fmt.str "%d: %s" f.line f.message) else None)
      (Lint.scan_tree ~root [ "lib" ])
  in
  Alcotest.(check (list string))
    "three findings, a use through open or Module.( ... ) is a use"
    [
      "1: val Alpha.unused has no user outside its own module";
      "4: val Alpha.only_tests is used only by tests; tag its doc comment Test-only";
      Fmt.str "7: val Alpha.stale is tagged Test-only but %s uses it"
        (Filename.concat (Filename.concat root "bin") "main.ml");
      "22: val Alpha.unexcused has no user outside its own module";
    ]
    found

(* unused-option over a planted tree: one option per finding kind, and
   the passes, tags and pragmas that keep the others quiet. *)
let test_lint_unused_option () =
  let root = Filename.temp_dir "unused_option" "" in
  let write rel contents =
    let path = Filename.concat root rel in
    let rec mkdir d =
      if not (Sys.file_exists d) then begin
        mkdir (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdir (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  write "lib/a/alpha.mli"
    "val f :\n\
    \  ?never:int ->\n\
    \  ?tested:int ->\n\
    \  ?used:int ->\n\
    \  ?reasoned:int (* lint: allow unused-option — kept for a stated reason *) ->\n\
    \  ?unreasoned:int (* lint: allow unused-option *) ->\n\
    \  unit ->\n\
    \  int\n\
     (** Five options. *)\n\n\
     val g : ?tagged:int -> unit -> int\n\
     (** Test-only [?tagged]: a planted reason. *)\n\n\
     val h : ?as_value:int -> unit -> int\n\
     (** Handed to a higher-order function. *)\n\n\
     type config = {\n\
    \  only_tests : int;\n\
    \  both : int;\n\
     }\n\n\
     val default : config\n\
     (** The defaults. *)\n\n\
     val every : ?always:int -> unit -> int\n\
     (** Every caller passes [~always]. *)\n\n\
     val forwarded : ?always:int -> unit -> int\n\
     (** Its own module forwards [?always]. *)\n\n\
     val handed : ?opt:int -> unit -> int\n\
     (** Its own module hands it on as a value. *)\n\n\
     module N : sig\n\
    \  val k : ?nested:int -> unit -> int\n\
    \  (** Nested; no caller passes [?nested]. *)\n\
     end\n";
  write "lib/a/alpha.ml"
    "let forwarded ?(always = 0) () = always\n\
     let wrap ?always () = forwarded ?always ()\n\
     let handed ?(opt = 0) () = opt\n\
     let hand_on run = run ()\n\
     let via = hand_on handed\n";
  write "lib/b/beta.ml"
    "let apply k = k ~as_value:1 ()\n\
     let x = Alpha.f ~used:1 () + Alpha.g () + apply Alpha.h\n\
     let c = { Alpha.default with both = 2 }\n\
     let e = Alpha.every ~always:1 () + Alpha.handed () + Alpha.N.k ()\n";
  write "test/t.ml"
    "let z = Alpha.f ~tested:1 () + Alpha.g ~tagged:1 ()\n\
     let c = { Alpha.default with Alpha.only_tests = 3; both = 4 }\n\
     let e = Alpha.every ~always:2 () + Alpha.forwarded ~always:3 ()\n";
  let found =
    List.filter_map
      (fun (f : Lint.finding) ->
        if f.rule = "unused-option" then Some (Fmt.str "%d: %s" f.line f.message) else None)
      (Lint.scan_tree ~root [ "lib" ])
  in
  Alcotest.(check (list string))
    "an unpassed option, a test-only option, a test-only field, an unreasoned pragma, an \
     option every site passes, a nested option; a forward or a value in the own module \
     passes"
    [
      "2: val Alpha.f: no call site passes ?never";
      "3: val Alpha.f: only tests pass ?tested; state why in a Test-only [?tested]: tag";
      "6: val Alpha.f: no call site passes ?unreasoned";
      "18: field Alpha.config.only_tests is set only by tests";
      "25: val Alpha.every: every call site passes ~always; its default never runs";
      "35: val Alpha.N.k: no call site passes ?nested";
    ]
    found

(* CHANGES.md: PR lines in order, with FOUND/MENDED notes between them. *)
let test_doc_lint_changes_log () =
  let root = Filename.temp_dir "changes" "" in
  let path = Filename.concat root "CHANGES.md" in
  let changes lines =
    Out_channel.with_open_bin path (fun oc -> output_string oc (String.concat "\n" lines));
    List.map (fun f -> (f.Lint.rule, f.Lint.line)) (Doc_lint.scan_repo ~root)
  in
  Alcotest.(check (list (pair string int))) "notes take no PR number" []
    (changes [ "PR 1 (a): x"; "FOUND: a fault"; "PR 2 (b): y"; "MENDED: a fault"; "" ]);
  Alcotest.(check (list (pair string int))) "other lines flagged"
    [ ("changes-log", 2); ("changes-log", 3) ]
    (changes [ "PR 1 (a): x"; "Found: lower case"; "PR 3 (b): skips 2" ]);
  Sys.remove path;
  Sys.rmdir root

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_diff_traces () =
  Alcotest.(check bool) "equal traces" true
    (Schedule_fuzz.diff_traces [ "a"; "b" ] [ "a"; "b" ] = None);
  (match Schedule_fuzz.diff_traces [ "a"; "b" ] [ "a"; "c" ] with
  | Some d ->
      Alcotest.(check int) "divergence line" 2 d.Schedule_fuzz.line_no;
      Alcotest.(check (option string)) "first" (Some "b") d.Schedule_fuzz.first;
      Alcotest.(check (option string)) "second" (Some "c") d.Schedule_fuzz.second
  | None -> Alcotest.fail "expected a divergence");
  match Schedule_fuzz.diff_traces [ "a" ] [ "a"; "b" ] with
  | Some d ->
      Alcotest.(check (option string)) "short run ended" None d.Schedule_fuzz.first
  | None -> Alcotest.fail "expected a length divergence"

(* Replaying [seed] of [scenario] must report nothing. *)
let check_replay_clean what scenario seed =
  let _, findings = Schedule_fuzz.replay ~seed scenario in
  Alcotest.(check (list string)) (what ^ " replays clean") []
    (List.map (Fmt.str "%a" Schedule_fuzz.pp_finding) findings)

(* A scenario whose rendered result drifts on every rerun; its trace
   drifts too when [trace_drifts]. Identical traces do not imply
   identical results, so replay must flag the result drift either way. *)
let test_compare_runs_catches_nondeterminism () =
  let kinds ~trace_drifts =
    let counter = ref 0 in
    let drift =
      Schedule_fuzz.make_scenario ~strict:false "drift"
        ~run:(fun _ ~fault_seed:_ ->
          incr counter;
          let engine = Engine.create () in
          let _ =
            Engine.Fiber.spawn engine (fun () ->
                Trace.emit engine ~component:"drift" "run %d"
                  (if trace_drifts then !counter else 0))
          in
          Engine.run engine;
          !counter)
        ~render:string_of_int
        ~audit:(fun _ -> [])
    in
    List.map (fun f -> f.Schedule_fuzz.kind) (snd (Schedule_fuzz.replay ~seed:1000 drift))
  in
  Alcotest.(check bool) "trace and output divergence located" true
    (kinds ~trace_drifts:true
    = [ Schedule_fuzz.Replay_divergence; Schedule_fuzz.Result_divergence ]);
  Alcotest.(check bool) "output divergence under an identical trace" true
    (kinds ~trace_drifts:false = [ Schedule_fuzz.Result_divergence ])

let test_registry_experiment_deterministic () =
  check_replay_clean "fig5a quick"
    (Option.get (Schedule_fuzz.find_scenario "exp:fig5a"))
    7000

(* A fault-free experiment that deterministically dies with a typed error
   replays identically, but it did not complete: replay must flag it. A
   faulted scenario may end that way, so only strict ones are flagged. *)
let test_strict_escape_fails_replay () =
  let full _ ~progress:_ = raise (Disk.Full { disk = "d0"; need = 2; capacity = 1 }) in
  let exp =
    { Experiments.Registry.id = "full"; paper_ref = ""; description = ""; run = full }
  in
  let kinds scenario =
    List.map (fun f -> f.Schedule_fuzz.kind) (snd (Schedule_fuzz.replay ~seed:13000 scenario))
  in
  Alcotest.(check bool) "escape from a fault-free experiment flagged" true
    (kinds (Schedule_fuzz.experiment exp) = [ Schedule_fuzz.Invariant ]);
  Alcotest.(check bool) "typed error of a faulted scenario is an outcome" true
    (kinds
       (Schedule_fuzz.make_scenario ~strict:false "faulted"
          ~run:(fun scale ~fault_seed:_ -> full scale ~progress:ignore)
          ~render:(fun _ -> "")
          ~audit:(fun _ -> []))
    = [])

(* A synthetic engine workload whose log records every wake-up with its
   time: sleeps that end together, same-instant yields, semaphore and
   mailbox hand-offs, plain callbacks and cancellations all race at
   shared instants, so any change of tie order changes the log. *)
let engine_order_digest schedule =
  let e = Engine.create ~schedule () in
  let sem = Engine.Semaphore.create e 2 in
  let mb = Engine.Mailbox.create e in
  let log = Buffer.create 65536 in
  let note fmt = Fmt.kstr (fun s -> Buffer.add_string log (Fmt.str "%h %s\n" (Engine.now e) s)) fmt in
  let fibers =
    List.init 16 (fun i ->
        Engine.Fiber.spawn e ~name:(string_of_int i) (fun () ->
            for round = 0 to 9 do
              Engine.sleep e (float_of_int (((i * 7) + (round * 3)) mod 4) *. 0.25);
              note "%d.%d wake" i round;
              Engine.Semaphore.with_held sem (fun () ->
                  note "%d.%d held" i round;
                  Engine.yield e;
                  note "%d.%d yielded" i round);
              if i mod 3 = 0 then Engine.Mailbox.send mb (i, round)
              else if i mod 3 = 1 then begin
                let j, r = Engine.Mailbox.recv mb in
                note "%d.%d got %d.%d" i round j r
              end;
              Engine.at e (Engine.now e) (fun () -> note "%d.%d at" i round)
            done))
  in
  let _ =
    Engine.Fiber.spawn e ~name:"reaper" (fun () ->
        Engine.sleep e 2.0;
        List.iteri (fun i f -> if i mod 5 = 4 then Engine.Fiber.cancel f) fibers;
        note "reaped")
  in
  Engine.run e;
  Digest.to_hex (Digest.string (Buffer.contents log))

(* A second hand-off program, aimed at resumes that run in place: ready
   values (a free semaphore token, a full ivar, a queued message) are taken
   both when nothing else is due and when a plain callback shares the
   instant; odd workers' sleeps fire alone, even workers' end together;
   a fiber is cancelled during each kind of wait (a sleep, a contended
   acquire, an empty ivar, an empty mailbox); and one fiber cancels itself
   and then asks for a free token. *)
let engine_shortcut_digest schedule =
  let e = Engine.create ~schedule () in
  let free = Engine.Semaphore.create e 64 and gate = Engine.Semaphore.create e 1 in
  let full = Engine.Ivar.create e and late = Engine.Ivar.create e in
  Engine.Ivar.fill full 7;
  let mb = Engine.Mailbox.create e and quiet = Engine.Mailbox.create e in
  let log = Buffer.create 65536 in
  let note fmt =
    Fmt.kstr (fun s -> Buffer.add_string log (Fmt.str "%h %s\n" (Engine.now e) s)) fmt
  in
  let sleep_until time = Engine.sleep e (Float.max 0.0 (time -. Engine.now e)) in
  let worker i () =
    for round = 0 to 11 do
      sleep_until (float_of_int round +. if i mod 2 = 0 then 0.0 else float_of_int i *. 0.01);
      note "%d.%d wake" i round;
      let company what =
        Engine.at e (Engine.now e) (fun () -> note "%d.%d at %s" i round what)
      in
      match (i + round) mod 5 with
      | 0 ->
          Engine.Semaphore.acquire free;
          note "%d.%d token" i round;
          Engine.Semaphore.release free
      | 1 -> note "%d.%d read %d" i round (Engine.Ivar.read full)
      | 2 ->
          Engine.Mailbox.send mb (i, round);
          let j, r = Engine.Mailbox.recv mb in
          note "%d.%d got %d.%d" i round j r
      | 3 ->
          company "token";
          Engine.Semaphore.acquire free;
          note "%d.%d token past a callback" i round;
          Engine.Semaphore.release free;
          company "read";
          note "%d.%d read %d past a callback" i round (Engine.Ivar.read full);
          Engine.Mailbox.send mb (i, round);
          company "recv";
          let j, r = Engine.Mailbox.recv mb in
          note "%d.%d got %d.%d past a callback" i round j r
      | _ ->
          Engine.Semaphore.with_held gate (fun () ->
              note "%d.%d gate" i round;
              Engine.sleep e 0.003)
    done
  in
  for i = 0 to 11 do
    ignore (Engine.Fiber.spawn e ~name:(string_of_int i) (worker i))
  done;
  let spawn name at wait =
    Engine.Fiber.spawn e ~name (fun () ->
        sleep_until at;
        match wait () with
        | v -> note "%s got %d" name v
        | exception Engine.Cancelled ->
            note "%s cancelled (%d free tokens)" name (Engine.Semaphore.available free);
            raise Engine.Cancelled)
  in
  let victims =
    [
      spawn "sleeper" 0.0 (fun () ->
          Engine.sleep e 100.0;
          0);
      spawn "gate-waiter" 3.25 (fun () -> Engine.Semaphore.with_held gate (fun () -> 1));
      spawn "late-reader" 0.0 (fun () -> Engine.Ivar.read late);
      spawn "quiet-receiver" 0.0 (fun () -> Engine.Mailbox.recv quiet);
    ]
  in
  let _ =
    spawn "gate-holder" 3.2 (fun () ->
        Engine.Semaphore.with_held gate (fun () ->
            Engine.sleep e 1.0;
            2))
  in
  let _ = spawn "late-reader-2" 0.0 (fun () -> Engine.Ivar.read late) in
  let _ = spawn "quiet-receiver-2" 0.0 (fun () -> Engine.Mailbox.recv quiet) in
  let _ =
    spawn "self" 1.5 (fun () ->
        Option.iter Engine.Fiber.cancel (Engine.current_fiber e);
        Engine.Semaphore.acquire free;
        3)
  in
  Engine.at e 3.3 (fun () -> List.iter Engine.Fiber.cancel victims);
  Engine.at e 5.0 (fun () -> Engine.Ivar.fill late 4);
  Engine.at e 6.0 (fun () -> Engine.Mailbox.send quiet 5);
  Engine.run e;
  note "end: %d free, %d gate, %d queued, %d live, %d blocked" (Engine.Semaphore.available free)
    (Engine.Semaphore.available gate) (Engine.Mailbox.length mb) (Engine.live_fibers e)
    (Engine.blocked_fibers e);
  Digest.to_hex (Digest.string (Buffer.contents log))

(* Event-order digests, recorded with the single-heap event queue: the MD5
   of the quick-scale trace of two registry experiments, and of the
   synthetic hand-off log above under each kind of schedule. Fifo runs through the heap and the same-instant lane, the
   fuzz schedules through the heap alone; both must replay the historical
   order line for line. A mismatch here is a change of event order, which
   moves simulated results. *)
let pinned_trace_digests =
  [
    ( "fig5a",
      [
        (Event_queue.Fifo, "5e12abac1ceef32938fc1120ebe9f6e5");
        (Event_queue.Lifo, "4eb17027bf9481ebbf426ae276a783fa");
        (Event_queue.Seeded_shuffle 7, "b50b2a1f218c9105a00d0ec7ba0040e0");
      ] );
    ( "fig2a",
      [
        (Event_queue.Fifo, "74723ff4df0ff82bc9ba50a7a891a9e5");
        (Event_queue.Lifo, "b9623fe120e2345e4b75eda4329056ed");
        (Event_queue.Seeded_shuffle 7, "beff8413e883a265e483a58eb3e969c8");
      ] );
  ]


let pinned_engine_digests =
  [
    (Event_queue.Fifo, "de5b966043c9908792b4c1feb7287995");
    (Event_queue.Lifo, "e8dd52274b9ec853bede1e841a201605");
    (Event_queue.Seeded_shuffle 7, "ee3644f8c4bd4c6cb08fb05b076451b8");
  ]

(* Digests of the in-place program above, recorded before any resume ran
   in place. Dropping the [Event_queue.skip] of an in-place resume moves
   the shuffle digest; running one while another event is due moves the
   fifo digest. The final "end" line is stamped 11.11 s, the last live
   event: the cancelled 100 s sleeper's timer does not move the clock. *)
let pinned_shortcut_digests =
  [
    (Event_queue.Fifo, "73ba00c8b618941b1e5c05b0bac90614");
    (Event_queue.Lifo, "c32f334c9075761ddb3b1a21209194bd");
    (Event_queue.Seeded_shuffle 7, "08694acbfe284f7590e1a7818231971d");
  ]

let test_pinned_event_order () =
  List.iter
    (fun (id, pins) ->
      match Experiments.Registry.find id with
      | None -> Alcotest.failf "%s not registered" id
      | Some exp ->
          List.iter
            (fun (schedule, expected) ->
              let scale = { Experiments.Scale.quick with Experiments.Scale.schedule } in
              let _, lines =
                Trace.capture (fun () ->
                    exp.Experiments.Registry.run scale ~progress:(fun _ -> ()))
              in
              Alcotest.(check string)
                (Fmt.str "%s trace digest under %a" id Event_queue.pp_schedule schedule)
                expected
                (Digest.to_hex (Digest.string (String.concat "\n" lines))))
            pins)
    pinned_trace_digests;
  List.iter
    (fun (schedule, expected) ->
      Alcotest.(check string)
        (Fmt.str "engine hand-off digest under %a" Event_queue.pp_schedule schedule)
        expected (engine_order_digest schedule))
    pinned_engine_digests;
  List.iter
    (fun (schedule, expected) ->
      Alcotest.(check string)
        (Fmt.str "engine in-place digest under %a" Event_queue.pp_schedule schedule)
        expected (engine_shortcut_digest schedule))
    pinned_shortcut_digests

(* MD5 of every registry experiment's rendered tables at quick scale.
   Engineering changes (simulator speedups, refactors) must leave
   simulated results byte-identical; a model change that moves a table
   re-records its pin here and says so. *)
let pinned_quick_tables =
  [
    ("fig2a", "df7313ca17b2d8380b5623c981fc2674");
    ("fig2b", "3db36fc13668a3b3cef5f2ae205b4332");
    ("fig4", "71fafb387fccb400bd4ed4a00fd1cd82");
    ("fig5a", "136c3702ef52f30a7b94dc9858b7d8ce");
    ("fig6", "1836c9693912c0afef375b40ad8d72d0");
    ("table1", "a764a17e9f1b51eb914c5c416586a1d2");
    ("availability", "a275ba7f20affde5156906fd2b974351");
    ("durability", "19c6ae1a61c25864203044f341fbcfc8");
    ("dr", "cb78ed8dfa9d2c54a7382081cfa6e9c8");
    ("dedup", "373b4b9f7e0b0034a376c1748c96a700");
    ("digest", "e63a0e5cc55b35079b14d5076b8d3ee5");
    ("chains", "30d279e7a4bf13e451a70f50f05d95ca");
    ("precopy", "f08fa97391058fc89af62fec12e88204");
    ("abl-prefetch", "823e864df26feb9821b7a64780cedbf4");
    ("abl-stripe", "7be3bf79c621748b2bc1488b9a8da8dd");
    ("abl-replication", "4365a245ab9d37c7192787f3c55acd8e");
    ("abl-incremental", "58e7e56811d825cc04ccc078238f707d");
  ]

(* MD5 of every points document (BENCH_<id>.json) the registry yields at
   quick scale, under the same rule as the table pins. *)
let pinned_quick_points =
  [
    ("dedup", "566431d7b0ca45748bd5aade48e6e1e5");
    ("digest", "27de00027e08c133690b5c2d38ac488c");
    ("precopy", "a3a0de282546aa62cf4f48dc4178ac03");
  ]

let test_pinned_quick_tables () =
  Alcotest.(check (list string))
    "every experiment pinned"
    (List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all)
    (List.map fst pinned_quick_tables);
  let md5 s = Digest.to_hex (Digest.string s) in
  let moved =
    List.concat_map
      (fun (id, expected) ->
        let exp = Option.get (Experiments.Registry.find id) in
        let result = exp.Experiments.Registry.run Experiments.Scale.quick ~progress:(fun _ -> ()) in
        let tables = md5 (Experiments.Registry.render result) in
        let points = Option.map md5 result.Experiments.Registry.points in
        (if tables = expected then [] else [ Fmt.str "%s (%s)" id tables ])
        @
        if points = List.assoc_opt id pinned_quick_points then []
        else [ Fmt.str "%s points (%s)" id (Option.value points ~default:"none") ])
      pinned_quick_tables
  in
  Alcotest.(check (list string))
    "experiments whose quick-scale tables or points moved" [] moved

let test_scrub_replay_deterministic () =
  check_replay_clean "scrub/repair log" Schedule_fuzz.scrub 11000

(* ------------------------------------------------------------------ *)
(* Schedule fuzzing *)

let test_fuzz_seed_roundtrip () =
  List.iter
    (fun (slot, fault_seed) ->
      let s = Schedule_fuzz.sample_of_seed (Schedule_fuzz.seed_of ~slot ~fault_seed) in
      Alcotest.(check int) "slot" slot s.Schedule_fuzz.slot;
      Alcotest.(check int) "fault seed" fault_seed s.Schedule_fuzz.fault_seed)
    [ (0, 0); (1, 7); (503, 191191); (999, 1_999_999) ];
  Alcotest.(check bool) "slot 0 is fifo" true
    (Schedule_fuzz.schedule_of_slot 0 = Event_queue.Fifo);
  Alcotest.(check bool) "slot 1 is lifo" true
    (Schedule_fuzz.schedule_of_slot 1 = Event_queue.Lifo);
  Alcotest.(check bool) "slot 503 is shuffle:503" true
    (Schedule_fuzz.schedule_of_slot 503 = Event_queue.Seeded_shuffle 503);
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Schedule_fuzz.seed_of: slot") (fun () ->
      ignore (Schedule_fuzz.seed_of ~slot:1000 ~fault_seed:0))

let test_fuzz_grid_smoke () =
  (* A small grid over the chaos scenario: every sample must pass the
     invariant battery and match the fifo reference results. *)
  let report =
    Schedule_fuzz.run ~fault_streams:2 ~schedules:3 ~master_seed:42 Schedule_fuzz.chaos
  in
  Alcotest.(check int) "sample count" 6 (List.length report.Schedule_fuzz.samples);
  Alcotest.(check bool)
    (Fmt.str "grid clean: %a" Schedule_fuzz.pp_report report)
    true
    (Schedule_fuzz.clean report)

let test_fuzz_replay_byte_identical () =
  let seed = Schedule_fuzz.seed_of ~slot:7 ~fault_seed:12345 in
  let outcome, findings = Schedule_fuzz.replay ~seed Schedule_fuzz.chaos in
  Alcotest.(check (list string)) "replay clean" []
    (List.map (fun f -> Fmt.str "%a" Schedule_fuzz.pp_finding f) findings);
  Alcotest.(check bool) "trace captured" true (outcome.Schedule_fuzz.trace <> []);
  (* The repro command printed for a finding embeds the same seed. *)
  let f =
    {
      Schedule_fuzz.scenario = "chaos";
      sample = Schedule_fuzz.sample_of_seed seed;
      kind = Schedule_fuzz.Invariant;
      detail = "";
    }
  in
  Alcotest.(check string) "repro command"
    (Fmt.str "blobcr_lint fuzz --scenario chaos --seed %d" seed)
    (Schedule_fuzz.repro_command f)

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "hashtbl-order rule" `Quick test_lint_hashtbl_order;
          Alcotest.test_case "ambient-effect rules" `Quick test_lint_ambient_effects;
          Alcotest.test_case "domains rule" `Quick test_lint_domains;
          Alcotest.test_case "catch-all rule" `Quick test_lint_catch_all;
          Alcotest.test_case "changes-log notes" `Quick test_doc_lint_changes_log;
          Alcotest.test_case "strings and comments inert" `Quick
            test_lint_strings_and_comments_inert;
          Alcotest.test_case "poly-compare rule" `Quick test_lint_poly_compare;
          Alcotest.test_case "missing-mli rule" `Quick test_lint_missing_mli;
          Alcotest.test_case "unused-export rule" `Quick test_lint_unused_export;
          Alcotest.test_case "unused-option rule" `Quick test_lint_unused_option;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "diff_traces" `Quick test_diff_traces;
          Alcotest.test_case "nondeterministic thunk caught" `Quick
            test_compare_runs_catches_nondeterminism;
          Alcotest.test_case "fig5a quick run is deterministic" `Slow
            test_registry_experiment_deterministic;
          Alcotest.test_case "escape from a strict scenario fails replay" `Quick
            test_strict_escape_fails_replay;
          Alcotest.test_case "scrub/repair log replays identically" `Slow
            test_scrub_replay_deterministic;
          Alcotest.test_case "event order matches pinned digests" `Slow test_pinned_event_order;
          Alcotest.test_case "quick-scale tables match pinned digests" `Slow
            test_pinned_quick_tables;
        ] );
      ( "schedule-fuzz",
        [
          Alcotest.test_case "seed encode/decode roundtrip" `Quick test_fuzz_seed_roundtrip;
          Alcotest.test_case "small grid clean" `Slow test_fuzz_grid_smoke;
          Alcotest.test_case "replay byte-identical" `Slow test_fuzz_replay_byte_identical;
        ] );
    ]
