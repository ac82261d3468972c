(* blobcr-cli: drive the reproduction from the command line.

     blobcr_cli list                         available experiments
     blobcr_cli run fig2a --scale quick      run one experiment
     blobcr_cli run paper                    the six paper sweeps (all nine
                                             figures/tables), then total wall time
     blobcr_cli run ablations                the four design-choice ablations
     blobcr_cli run all --csv results/       run everything, write CSVs
     blobcr_cli run fig4 --profile prof.txt  sample call stacks every 2 ms of CPU
     blobcr_cli calibration                  show the simulated testbed

   Each experiment prints the same rows/series the corresponding paper
   figure plots (see EXPERIMENTS.md for the paper-vs-measured record). *)

open Cmdliner

let scale_arg =
  let parse s =
    match Experiments.Scale.find s with
    | Some scale -> Ok scale
    | None -> Error (`Msg (Fmt.str "unknown scale %S (expected: paper, quick)" s))
  in
  let print ppf scale = Fmt.string ppf scale.Experiments.Scale.name in
  Arg.conv (parse, print)

let scale_term =
  Arg.(
    value
    & opt scale_arg Experiments.Scale.paper
    & info [ "s"; "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: $(b,paper) (published testbed shape) or $(b,quick) (smoke run).")

let csv_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each output table as CSV under $(docv).")

let quiet_term =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-point progress lines.")

let obs_term =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Run under the observability layer: print the metrics table and the \
           per-phase checkpoint/restart breakdown after the experiment tables.")

let timeline_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome-trace JSON timeline of the run to $(docv) (open with \
           chrome://tracing or https://ui.perfetto.dev). Implies $(b,--obs) recording; \
           with several experiments the file is suffixed with the experiment id.")

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Fmt.pr "%-8s %-28s %s@." e.Experiments.Registry.id e.Experiments.Registry.paper_ref
          e.Experiments.Registry.description)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible experiments (one per paper figure/table).")
    Term.(const run $ const ())

let profile_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Sample the run's OCaml call stacks every 2 ms of CPU time and write self, \
           per-compilation-unit and inclusive tables to $(docv).")

(* Sampling profiler. SIGPROF fires every 2 ms of process CPU time and
   records the OCaml call stack; the handler's own frames are dropped when
   the report is built. Each table lists its 40 largest rows. *)
let start_profile () =
  let samples = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := Printexc.get_callstack 64 :: !samples));
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.002; it_value = 0.002 });
  samples

let write_profile samples path =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let handler_frame = __MODULE__ ^ ".start_profile" in
  let frames stack =
    Printexc.backtrace_slots stack |> Option.fold ~none:[] ~some:Array.to_list
    |> List.filter_map Printexc.Slot.name
    |> List.filter (fun name -> not (String.starts_with ~prefix:handler_frame name))
  in
  let self = Hashtbl.create 256 and inclusive = Hashtbl.create 256 in
  let by_module = Hashtbl.create 64 in
  let bump table name =
    Hashtbl.replace table name (1 + Option.value ~default:0 (Hashtbl.find_opt table name))
  in
  List.iter
    (fun stack ->
      match frames stack with
      | [] -> bump self "(no OCaml frame)"
      | innermost :: _ as names ->
          bump self innermost;
          bump by_module (List.hd (String.split_on_char '.' innermost));
          List.iter (bump inclusive) (List.sort_uniq String.compare names))
    !samples;
  let total = List.length !samples in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "%d samples, at most one per 2 ms of CPU time. OCaml delivers signals at polling points\n\
         (allocations, calls, loop back-edges), so samples are biased toward safepoints.\n"
        total;
      List.iter
        (fun (title, table) ->
          Printf.fprintf oc "\n%s\n%7s %8s  %s\n" title "share" "samples" "frame";
          Hashtbl.fold (fun name n acc -> (n, name) :: acc) table []
          |> List.sort (fun (a, x) (b, y) -> if a <> b then Int.compare b a else String.compare x y)
          |> List.iteri (fun i (n, name) ->
                 if i < 40 then
                   Printf.fprintf oc "%6.1f%% %8d  %s\n"
                     (100.0 *. float_of_int n /. float_of_int (max 1 total))
                     n name))
        [
          ("self (innermost frame)", self);
          ("self by compilation unit", by_module);
          ("inclusive (anywhere on the stack)", inclusive);
        ])

(* [mkdir -p]: create [dir] and its missing parents. *)
let rec make_dirs dir =
  if not (Sys.file_exists dir) then begin
    make_dirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* lint: allow wall-clock — the run reports the real time each experiment took *)
let wall_clock () = Unix.gettimeofday ()

let run_one scale csv_dir quiet obs timeline (e : Experiments.Registry.t) =
  let progress line = if not quiet then Fmt.epr "    %s@." line in
  Fmt.pr "### %s — %s@.@." e.Experiments.Registry.id e.Experiments.Registry.paper_ref;
  let t0 = wall_clock () in
  let result, run =
    Experiments.Registry.execute e scale ~observe:(obs || timeline <> None) ~progress
  in
  Fmt.pr "%s@." (Experiments.Registry.render ?csv_dir result);
  Option.iter
    (Fmt.pr "(points written to %s)@.")
    (Experiments.Registry.write_points e result);
  Option.iter
    (fun run ->
      if obs then Fmt.pr "%s@." (Experiments.Registry.render_observability run);
      Option.iter
        (fun path ->
          Obs.Export.write_chrome_trace run ~path;
          Fmt.pr "(timeline written to %s)@." path)
        timeline)
    run;
  Fmt.pr "(experiment wall time: %.1fs)@.@." (wall_clock () -. t0)

let run_cmd =
  let ids_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiment ids (see $(b,list)), or a group: $(b,paper) (the six sweeps behind \
             Figures 2-6 and Table 1), $(b,ablations) or $(b,all).")
  in
  let run scale csv quiet obs timeline profile names =
    (* Resolve every name before running any, so a typo fails fast. *)
    let exps =
      match Experiments.Registry.select names with
      | Ok exps -> exps
      | Error msg ->
          Fmt.epr "%s; try `blobcr_cli list'@." msg;
          exit 2
    in
    (* Likewise create the CSV directory before the first experiment runs. *)
    Option.iter
      (fun dir ->
        match make_dirs dir with
        | () when Sys.is_directory dir -> ()
        | () ->
            Fmt.epr "--csv: %s: not a directory@." dir;
            exit 2
        | exception Sys_error msg ->
            Fmt.epr "--csv: %s@." msg;
            exit 2)
      csv;
    (* One timeline file per experiment: suffix with the id when several run. *)
    let timeline_for id =
      match timeline with
      | Some path when List.length exps > 1 ->
          let base, ext =
            match Filename.chop_suffix_opt ~suffix:".json" path with
            | Some base -> (base, ".json")
            | None -> (path, "")
          in
          Some (Fmt.str "%s.%s%s" base id ext)
      | other -> other
    in
    let profiling = Option.map (fun path -> (path, start_profile ())) profile in
    let t0 = wall_clock () in
    List.iter
      (fun e -> run_one scale csv quiet obs (timeline_for e.Experiments.Registry.id) e)
      exps;
    if List.length exps > 1 then
      Fmt.pr "(total wall time: %.1fs, %d experiments)@." (wall_clock () -. t0)
        (List.length exps);
    Option.iter
      (fun (path, samples) ->
        write_profile samples path;
        Fmt.pr "(profile written to %s)@." path)
      profiling
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print the paper-figure tables.")
    Term.(
      const run $ scale_term $ csv_term $ quiet_term $ obs_term $ timeline_term $ profile_term
      $ ids_term)

let calibration_cmd =
  let run () =
    let c = Blobcr.Calibration.default in
    let mb v = v /. float_of_int Simcore.Size.mib in
    Fmt.pr "Simulated testbed (defaults follow Section 4.1 of the paper):@.";
    Fmt.pr "  compute nodes        %d@." c.compute_nodes;
    Fmt.pr "  local disk           %.1f MB/s, %.1f ms/op, %.0f ms seek@." (mb c.disk_rate)
      (c.disk_per_op *. 1e3)
      (8.0);
    Fmt.pr "  network              %.1f MB/s, %.2f ms latency@." (mb c.net_bandwidth)
      (c.net_latency *. 1e3);
    Fmt.pr "  disk image           %a@." Simcore.Size.pp c.image_capacity;
    Fmt.pr "  guest RAM            %a (+%a full-snapshot overhead)@." Simcore.Size.pp
      c.guest_ram Simcore.Size.pp c.os_ram_overhead;
    Fmt.pr "  BlobSeer             stripe %a, %d metadata providers, window %d@."
      Simcore.Size.pp c.blobseer.Blobseer.Types.stripe_size c.metadata_providers
      c.blobseer.Blobseer.Types.write_window;
    Fmt.pr "  PVFS                 stripe %a, %.0f ms metadata op, window %d@."
      Simcore.Size.pp c.pvfs.Pvfs.stripe_size
      (c.pvfs.Pvfs.metadata_op_cost *. 1e3)
      c.pvfs.Pvfs.write_window;
    Fmt.pr "  savevm rate          %.0f MB/s; loadvm record %a@." (mb c.savevm_rate)
      Simcore.Size.pp c.loadvm_record
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Print the simulated testbed constants.")
    Term.(const run $ const ())

let () =
  let doc = "BlobCR (SC'11) reproduction: experiments and tools" in
  let info = Cmd.info "blobcr_cli" ~doc ~version:"1.0.0" in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; calibration_cmd ]))
