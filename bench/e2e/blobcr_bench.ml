(* blobcr_bench — the repository's end-to-end benchmark.

   Usage:
     blobcr_bench.exe --workload <name>|all --seed N [--seconds S] [--setups K]
                      [--trace FILE | --traced] [--size full|tiny]
     blobcr_bench.exe compare BASE.json NEW.json
     blobcr_bench.exe smoke

   Prints one JSON object per workload on stdout: every metric by name with
   its unit and sample count, and every correctness check. Exits 1 if any
   check fails. Every measurement runs in a fresh process (the binary
   re-executes itself), so the payload digest cache and the observability
   registry never carry over from one run to the next. Nothing is written
   to disk except the Chrome trace an explicit [--trace FILE] asks for.
   See README.md for the workloads, the metrics and the A/B protocol. *)

open Simcore
open Blobcr

let progress fmt = Printf.ksprintf (fun s -> Printf.eprintf "blobcr_bench: %s\n%!" s) fmt

(* ------------------------------------------------------------------ *)
(* One measurement, in this process *)

type run_opts = {
  workload : string;
  size : Scenarios.size;
  seed : int;
  seconds : float;
  traced : bool;
  trace_file : string option;
  setup_only : bool;
}

(* Recompute [failed_frac] from the outcome's operations and checks, and
   put the end-to-end metrics first, in catalogue order. *)
let finalize (o : Rig.outcome) =
  let metrics = List.filter (fun (m : Rig.metric) -> m.Rig.name <> "failed_frac") o.Rig.metrics in
  let ff =
    Rig.metric "failed_frac" "ratio"
      (float_of_int (Rig.failed o) /. float_of_int (max 1 (Rig.attempted o)))
      ~samples:(Rig.attempted o)
  in
  let all = ff :: metrics in
  let e2e =
    List.filter_map
      (fun (s : Catalogue.spec) -> List.find_opt (fun (m : Rig.metric) -> m.Rig.name = s.name) all)
      Catalogue.end_to_end
  in
  let layers = List.filter (fun (m : Rig.metric) -> Option.is_none (Catalogue.find m.Rig.name)) all in
  { o with metrics = e2e @ layers }

let phase_metrics (w : Scenarios.t) (run : Obs.Record.run) (cycles : Scenarios.cycle list) =
  let names =
    if w.Scenarios.op_root = "restart" then Catalogue.restart_phase_metrics
    else Catalogue.ckpt_phase_metrics
  in
  let per_cycle =
    List.map
      (fun (c : Scenarios.cycle) ->
        match
          Rig.critical_root run.Obs.Record.spans ~root:w.op_root ~t0:c.Scenarios.t0
            ~t1:(c.t0 +. c.latency)
        with
        | None -> (false, [])
        | Some root ->
            let selfs = Rig.self_times run.Obs.Record.spans root in
            let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 selfs in
            let bucket span =
              Option.value ~default:"core.other_s" (List.assoc_opt span Catalogue.phases)
            in
            let sums =
              List.map
                (fun metric ->
                  ( metric,
                    List.fold_left
                      (fun acc (span, s) -> if bucket span = metric then acc +. s else acc)
                      0.0 selfs ))
                names
            in
            (Float.abs (total -. c.latency) <= (0.01 *. c.latency) +. 1e-9, sums))
      cycles
  in
  let n = List.length cycles in
  let tiled = List.length (List.filter fst per_cycle) in
  let metrics =
    List.map
      (fun metric ->
        Rig.metric metric "sim_s"
          (Rig.percentile 0.5 (List.map (fun (_, sums) -> List.assoc metric sums) (List.filter fst per_cycle)))
          ~samples:tiled)
      names
  in
  let counter component name =
    match Rig.obs_metric run ~component ~name with Some m -> m | None -> failwith ("no metric " ^ name)
  in
  let commit = counter "mirror" "commit_seconds" in
  ( metrics
    @ [
        Rig.metric "vdisk.fetched_mib" "MiB" ((counter "mirror" "bytes_fetched").Obs.Record.total /. float_of_int Size.mib);
        Rig.metric "vdisk.commit_s" "sim_s"
          (if commit.Obs.Record.samples = 0 then 0.0 else commit.total /. float_of_int commit.samples)
          ~samples:commit.samples;
        Rig.metric "blobseer.publishes" "count" (counter "vmgr" "publishes").Obs.Record.total;
        Rig.metric "core.precopy_rounds" "count" (counter "ckpt" "precopy_rounds").Obs.Record.total;
        Rig.metric "core.precopy_mib" "MiB"
          ((counter "ckpt" "precopy_bytes").Obs.Record.total /. float_of_int Size.mib);
      ],
    Rig.check "phases_tile" ~passed:tiled ~total:n
      ~detail:"critical-path self times sum to each operation's latency within 1%" )

let run_one o =
  let cal = Scenarios.calibration o.size in
  let cluster, build_wall = Rig.timed (fun () -> Cluster.build ~seed:o.seed cal) in
  Rig.drive cluster (fun () ->
      let w = Scenarios.setup o.workload o.size cluster ~seed:o.seed in
      let setup_s = Rig.wall () -. Rig.process_start in
      let setup_metrics =
        [
          Rig.metric "setup_s" "s" setup_s;
          Rig.metric "simcore.setup_hashed_mib" "MiB" (Rig.mib (Payload.hashed_bytes ()));
          Rig.metric "core.build_wall_s" "s" build_wall;
          Rig.metric "core.deploy_wall_s" "s" !Scenarios.deploy_wall;
        ]
      in
      let base =
        { Rig.workload = o.workload; seed = o.seed; traced = o.traced; ops = 0; ops_failed = 0;
          metrics = setup_metrics; checks = [] }
      in
      if o.setup_only then base
      else begin
        let start = Rig.wall () in
        let before = Rig.read_layers cluster ~mirrors:(w.Scenarios.mirrors ()) in
        let t_sim0 = Cluster.now cluster in
        (* Every cycle paired with the reference loop timed right after it. *)
        let cycles = ref [] in
        let step i =
          let c = w.cycle i in
          cycles := (c, Rig.reference_wall ()) :: !cycles
        in
        let body () =
          for i = 0 to w.prefix - 1 do
            step i
          done
        in
        let run = if o.traced then Some (snd (Obs.Record.capture body)) else (body (); None) in
        (* Everything but the per-cycle wall samples comes from the prefix
           and is read before the tail runs. *)
        let prefix = List.rev_map fst !cycles in
        let after = Rig.read_layers cluster ~mirrors:(w.mirrors ()) in
        let wall = List.fold_left (fun acc (c : Scenarios.cycle) -> acc +. c.wall) 0.0 prefix in
        let latencies =
          List.filter_map (fun (c : Scenarios.cycle) -> if c.ok then Some c.latency else None) prefix
        in
        let nl = List.length latencies in
        let user = w.user_bytes () in
        let t = w.timers in
        let timer name v = if v > 0.0 then [ Rig.metric name "s" v ] else [] in
        let prefix_metrics =
          [
            Rig.metric (w.op_root ^ "_p50_s") "sim_s" (Rig.percentile 0.5 latencies) ~samples:nl;
            Rig.metric (w.op_root ^ "_p75_s") "sim_s" (Rig.percentile 0.75 latencies) ~samples:nl;
            Rig.metric "wall_s" "s" wall;
            Rig.metric "peak_heap_mib" "MiB" (Rig.peak_heap_mib ());
            Rig.metric "live_heap_mib" "MiB" (Rig.live_heap_mib ());
          ]
          @ (if user > 0 then
               [
                 Rig.metric "stored_per_user_byte" "ratio"
                   (float_of_int (after.l_repo - before.l_repo) /. float_of_int user);
               ]
             else [])
          @ w.extra ~t0:t_sim0 @ setup_metrics
          @ Rig.layer_metrics ~wall ~before ~after
          @ (if w.op_root = "restart" then [ Rig.metric "core.restart_wall_s" "s" t.restart_wall ]
             else [ Rig.metric "core.ckpt_wall_s" "s" t.ckpt_wall ])
          @ timer "workloads.fill_wall_s" t.fill_wall
          @ timer "workloads.dump_wall_s" t.dump_wall
          @ timer "workloads.restore_wall_s" t.restore_wall
          @ timer "workloads.iterate_wall_s" t.iterate_wall
          @ (if t.iterate_sim > 0.0 then [ Rig.metric "workloads.iterate_sim_s" "sim_s" t.iterate_sim ]
             else [])
        in
        let traced_metrics, traced_checks =
          match run with
          | None -> ([], [])
          | Some run ->
              Option.iter
                (fun path ->
                  Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.Export.chrome_trace run)))
                o.trace_file;
              let m, c = phase_metrics w run prefix in
              (m, [ c ])
        in
        (* Time-bounded tail: more cycles until [seconds] of wall time have
           been measured. They add wall-clock samples only. *)
        let i = ref w.prefix in
        while Rig.wall () -. start < o.seconds do
          step !i;
          incr i
        done;
        let all = !cycles in
        let na = List.length all in
        let per_cycle f = Rig.median (List.map f all) in
        let checks = w.verify () in
        {
          base with
          ops = na;
          ops_failed = List.length (List.filter (fun ((c : Scenarios.cycle), _) -> not c.ok) all);
          metrics =
            Rig.metric "cycle_wall_ms" "ms" (per_cycle (fun (c, _) -> 1000.0 *. c.Scenarios.wall)) ~samples:na
            :: Rig.metric "cycle_wall_ref" "ref" (per_cycle (fun (c, r) -> c.Scenarios.wall /. r)) ~samples:na
            :: Rig.metric "host.reference_ms" "ms" (per_cycle (fun (_, r) -> 1000.0 *. r)) ~samples:na
            :: (prefix_metrics @ traced_metrics);
          checks = checks @ traced_checks;
        }
      end)
  |> finalize

(* ------------------------------------------------------------------ *)
(* Fresh-process orchestration *)

(* Run this binary again with [args]; its last stdout line is its outcome. *)
let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (fun l -> String.trim l <> "") in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      try Some (Rig.of_json (Json.of_string last))
      with Json.Parse_error msg ->
        progress "unreadable child output (%s)" msg;
        None)
  | _ ->
      progress "child %s failed" (String.concat " " args);
      None

let child_args ~workload ~size ~seed ~seconds ~traced ~trace_file ~setup_only =
  [ "run-one"; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
    "--size"; Scenarios.size_name size ]
  @ (if traced then [ "--traced" ] else [])
  @ (match trace_file with Some f -> [ "--trace"; f ] | None -> [])
  @ if setup_only then [ "--setup-only" ] else []

let value (o : Rig.outcome) name = Option.map (fun (m : Rig.metric) -> m.Rig.value) (Rig.find o name)

(* Deterministic metrics of [a] that [b] does not reproduce exactly. *)
let mismatches (a : Rig.outcome) (b : Rig.outcome) =
  List.filter_map
    (fun (m : Rig.metric) ->
      if not (Catalogue.deterministic m) then None
      else
        match value b m.Rig.name with
        | Some v when Float.equal v m.value -> None
        | _ -> Some m.name)
    a.Rig.metrics

let failed_outcome ~workload ~seed what =
  finalize
    { Rig.workload; seed; traced = false; ops = 0; ops_failed = 0; metrics = [];
      checks = [ Rig.check "child_run" ~passed:0 ~total:1 ~detail:what ] }

let measure ~workload ~size ~seed ~seconds ~setups ~traced ~trace_file =
  let args = child_args ~workload ~size ~seed ~seconds in
  let extra_setups =
    List.init (max 0 (setups - 1)) (fun _ ->
        spawn (args ~traced:false ~trace_file:None ~setup_only:true))
  in
  match spawn (args ~traced:false ~trace_file:None ~setup_only:false) with
  | None -> failed_outcome ~workload ~seed "untraced run failed"
  | Some u ->
      let setup_samples =
        List.filter_map (fun o -> Option.bind o (fun o -> value o "setup_s")) (Some u :: extra_setups)
      in
      let u =
        {
          u with
          metrics =
            List.map
              (fun (m : Rig.metric) ->
                if m.Rig.name = "setup_s" then
                  Rig.metric "setup_s" "s" (Rig.median setup_samples) ~samples:(List.length setup_samples)
                else m)
              u.metrics;
        }
      in
      if not traced then u
      else begin
        match spawn (args ~traced:true ~trace_file ~setup_only:false) with
        | None -> failed_outcome ~workload ~seed "traced run failed"
        | Some t ->
            let known = List.map (fun (m : Rig.metric) -> m.Rig.name) u.metrics in
            let traced_only = List.filter (fun (m : Rig.metric) -> not (List.mem m.Rig.name known)) t.metrics in
            let overhead =
              match (value t "wall_s", value u "wall_s") with
              | Some tw, Some uw when uw > 0.0 -> [ Rig.metric "obs.overhead_frac" "ratio" ((tw /. uw) -. 1.0) ]
              | _ -> []
            in
            let bad = mismatches u t in
            let compared = List.length (List.filter Catalogue.deterministic u.metrics) in
            let identical =
              Rig.check "traced_sim_identical" ~passed:(compared - List.length bad) ~total:compared
                ~detail:(String.concat "," bad)
            in
            let tiling = List.filter (fun (c : Rig.check) -> c.Rig.check = "phases_tile") t.checks in
            finalize
              { u with traced = true; metrics = u.metrics @ traced_only @ overhead;
                checks = u.checks @ tiling @ [ identical ] }
      end

(* ------------------------------------------------------------------ *)
(* runtest smoke: tiny sizes, determinism and tiling in fresh processes *)

let smoke () =
  let ok = ref true in
  List.iter
    (fun workload ->
      (* A short time-bounded tail, whose length varies run to run, must
         not move anything the prefix measured. *)
      let args = child_args ~workload ~size:Scenarios.Tiny ~seed:42 ~seconds:0.05 ~trace_file:None ~setup_only:false in
      match (spawn (args ~traced:false), spawn (args ~traced:false), spawn (args ~traced:true)) with
      | Some a, Some b, Some t ->
          let problems =
            List.concat
              [
                List.map
                  (fun n -> "rerun differs on " ^ n)
                  (List.sort_uniq String.compare (mismatches a b @ mismatches b a));
                List.map (fun n -> "traced run differs on " ^ n) (mismatches a t);
                List.filter_map
                  (fun (o : Rig.outcome) -> if Rig.correct o then None else Some "a check failed")
                  [ a; b; t ];
              ]
          in
          if problems = [] then Printf.printf "smoke ok: %s\n%!" workload
          else begin
            ok := false;
            List.iter (fun p -> Printf.printf "smoke FAILED: %s: %s\n%!" workload p) problems
          end
      | _ ->
          ok := false;
          Printf.printf "smoke FAILED: %s: a run did not complete\n%!" workload)
    Scenarios.names;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: blobcr_bench.exe --workload <name>|all --seed N [--seconds S] [--setups K]\n\
    \                        [--trace FILE | --traced] [--size full|tiny]\n\
    \       blobcr_bench.exe compare BASE.json NEW.json\n\
    \       blobcr_bench.exe smoke\n\
     workloads: ckpt-burst, restart-storm, cm1-mpi, live-precopy";
  exit 2

let parse args =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--setups"; "--trace"; "--size" ] ->
        go ((flag, v) :: acc) rest
    | flag :: rest when List.mem flag [ "--traced"; "--setup-only" ] -> go ((flag, "") :: acc) rest
    | other :: _ ->
        Printf.eprintf "blobcr_bench: unexpected argument %S\n" other;
        usage ()
  in
  go [] args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; base; next ] -> exit (Compare.run base next)
  | [ "smoke" ] -> smoke ()
  | cmd :: rest when cmd = "run-one" || String.starts_with ~prefix:"--" cmd ->
      let args = parse (if cmd = "run-one" then rest else cmd :: rest) in
      let get k = List.assoc_opt k args in
      let number k default conv =
        match get k with
        | None -> default
        | Some v -> ( match conv v with Some x -> x | None -> Printf.eprintf "blobcr_bench: bad %s %S\n" k v; usage ())
      in
      let workload = match get "--workload" with Some w -> w | None -> usage () in
      let seed = number "--seed" 42 int_of_string_opt in
      let seconds = number "--seconds" 0.0 float_of_string_opt in
      let setups = number "--setups" 1 int_of_string_opt in
      let size =
        match get "--size" with
        | None | Some "full" -> Scenarios.Full
        | Some "tiny" -> Scenarios.Tiny
        | Some other -> Printf.eprintf "blobcr_bench: unknown size %S\n" other; usage ()
      in
      let trace_file = get "--trace" in
      let traced = Option.is_some trace_file || List.mem_assoc "--traced" args in
      let workloads =
        if workload = "all" then Scenarios.names
        else if List.mem workload Scenarios.names then [ workload ]
        else (Printf.eprintf "blobcr_bench: unknown workload %S\n" workload; usage ())
      in
      if cmd = "run-one" then
        print_endline
          (Json.to_string
             (Rig.to_json
                (run_one
                   { workload; size; seed; seconds; traced; trace_file;
                     setup_only = List.mem_assoc "--setup-only" args })))
      else begin
        let all_ok = ref true in
        List.iter
          (fun workload ->
            progress "%s (seed %d)" workload seed;
            let trace_file =
              match trace_file with
              | Some f when List.length workloads > 1 ->
                  Some (Filename.remove_extension f ^ "." ^ workload ^ Filename.extension f)
              | f -> f
            in
            let o = measure ~workload ~size ~seed ~seconds ~setups ~traced ~trace_file in
            if not (Rig.correct o) then all_ok := false;
            print_endline (Json.to_string (Rig.to_json o)))
          workloads;
        if not !all_ok then exit 1
      end
  | _ -> usage ()
