(* blobcr-cli: drive the reproduction from the command line.

     blobcr_cli list                         available experiments
     blobcr_cli run fig2a --scale quick      run one experiment
     blobcr_cli run all --csv results/       run everything, write CSVs
     blobcr_cli calibration                  show the simulated testbed *)

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

let run_one scale csv_dir quiet obs timeline (e : Experiments.Registry.t) =
  let progress line = if not quiet then Fmt.epr "    %s@." line in
  Fmt.pr "### %s — %s@.@." e.Experiments.Registry.id e.Experiments.Registry.paper_ref;
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
    run

let run_cmd =
  let ids_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (see $(b,list)), or $(b,all) for every one.")
  in
  let run scale csv quiet obs timeline ids =
    let ids =
      if List.mem "all" ids then Experiments.Registry.ids else ids
    in
    (* One timeline file per experiment: suffix with the id when several run. *)
    let timeline_for id =
      match timeline with
      | Some path when List.length ids > 1 ->
          let base, ext =
            match Filename.chop_suffix_opt ~suffix:".json" path with
            | Some base -> (base, ".json")
            | None -> (path, "")
          in
          Some (Fmt.str "%s.%s%s" base id ext)
      | other -> other
    in
    (* Check every id before running any, so a typo fails fast. *)
    let exps =
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None ->
              Fmt.epr "unknown experiment %S; try `blobcr_cli list'@." id;
              exit 2)
        ids
    in
    List.iter
      (fun e -> run_one scale csv quiet obs (timeline_for e.Experiments.Registry.id) e)
      exps
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print the paper-figure tables.")
    Term.(const run $ scale_term $ csv_term $ quiet_term $ obs_term $ timeline_term $ ids_term)

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
