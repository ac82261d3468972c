open Simcore

type result = { tables : (string * Stats.table) list; points : string option }

type t = {
  id : string;
  paper_ref : string;
  description : string;
  run : Scale.t -> progress:(string -> unit) -> result;
}

let tables_only tables = { tables; points = None }

(* The BENCH_<id>.json document: the scale, then one entry per point.
   Hand-rolled JSON, since the repo deliberately has no JSON dependency. *)
let points_document (scale : Scale.t) point_json points =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"scale\": %S,\n  \"points\": [\n" scale.Scale.name);
  let last = List.length points - 1 in
  List.iteri
    (fun i p ->
      Buffer.add_string buf (point_json p);
      Buffer.add_string buf (if i = last then "\n" else ",\n"))
    points;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* An experiment that yields raw points: its tables and its points
   document both come from one run. *)
let with_points (run : Scale.t -> progress:(string -> unit) -> 'p list) tables_of
    point_json scale ~progress =
  let points = run scale ~progress in
  { tables = tables_of points; points = Some (points_document scale point_json points) }

let fig2_3 tag buffer_of scale ~progress =
  let ckpt, restart = Figures.fig2_3 scale ~buffer:(buffer_of scale) ~tag ~progress in
  [ ("fig2" ^ tag, ckpt); ("fig3" ^ tag, restart) ]

let small (s : Scale.t) = s.Scale.buffer_small
let large (s : Scale.t) = s.Scale.buffer_large

let all =
  [
    {
      id = "fig2a";
      paper_ref = "Figure 2(a) + Figure 3(a)";
      description =
        "Checkpoint and restart completion time vs number of instances, 50 MB buffer, \
         all five approaches";
      run = (fun scale ~progress -> tables_only (fig2_3 "a" small scale ~progress));
    };
    {
      id = "fig2b";
      paper_ref = "Figure 2(b) + Figure 3(b)";
      description =
        "Checkpoint and restart completion time vs number of instances, 200 MB buffer";
      run = (fun scale ~progress -> tables_only (fig2_3 "b" large scale ~progress));
    };
    {
      id = "fig4";
      paper_ref = "Figure 4";
      description = "Snapshot size per VM instance, 50 MB and 200 MB buffers";
      run = (fun scale ~progress -> tables_only [ ("fig4", Figures.fig4 scale ~progress) ]);
    };
    {
      id = "fig5a";
      paper_ref = "Figure 5(a) + Figure 5(b)";
      description =
        "Four successive checkpoints of one instance (200 MB buffer): completion time \
         and cumulative storage";
      run =
        (fun scale ~progress ->
          let times, storage = Figures.fig5 scale ~progress in
          tables_only [ ("fig5a", times); ("fig5b", storage) ]);
    };
    {
      id = "fig6";
      paper_ref = "Figure 6";
      description = "CM1 checkpoint completion time for an increasing number of processes";
      run = (fun scale ~progress -> tables_only [ ("fig6", Figures.fig6 scale ~progress) ]);
    };
    {
      id = "table1";
      paper_ref = "Table 1";
      description = "CM1 per disk snapshot size";
      run =
        (fun scale ~progress -> tables_only [ ("table1", Figures.table1 scale ~progress) ]);
    };
    {
      id = "availability";
      paper_ref = "Beyond the paper (Section 3.2 fault model)";
      description =
        "Effective utilization, wasted work and recovery latency for supervised CM1 \
         under injected host/provider faults, MTBF x checkpoint-interval sweep";
      run = (fun scale ~progress -> tables_only (Availability.tables scale ~progress));
    };
    {
      id = "durability";
      paper_ref = "Beyond the paper (Section 3.1.1 replication + durability)";
      description =
        "Restart success, scrub repair traffic and checkpoint overhead for supervised CM1 \
         under silent replica corruption, corruption-weight x replication x scrub-interval \
         sweep";
      run = (fun scale ~progress -> tables_only (Durability.tables scale ~progress));
    };
    {
      id = "dr";
      paper_ref = "Beyond the paper (Section 5, availability under site loss)";
      description =
        "RPO/RTO, replication lag and primary checkpoint overhead for supervised CM1 on a \
         geo-replicated repository with a scripted primary-site disaster, link-latency x \
         checkpoint-interval x window sweep";
      run = (fun scale ~progress -> tables_only (Dr.tables scale ~progress));
    };
    {
      id = "dedup";
      paper_ref = "Beyond the paper (Section 3.1.3 commit path, content addressing)";
      description =
        "Commit bytes shipped, repository growth and commit latency for dup-heavy vs \
         unique gang checkpoints, content-addressed dedup on vs off, plus clean-rewrite \
         suppression";
      run = with_points Dedup_bench.run Dedup_bench.tables_of Dedup_bench.point_json;
    };
    {
      id = "digest";
      paper_ref = "Beyond the paper (Section 3.1.3 commit path, digest tax)";
      description =
        "Bytes digested during COMMIT and over the whole epoch, commit latency and bytes \
         shipped for full-region rewrites at varying dirty fractions, dedup on/off plus a \
         digest-cache-off baseline";
      run = with_points Digest_bench.run Digest_bench.tables_of Digest_bench.point_json;
    };
    {
      id = "chains";
      paper_ref = "Beyond the paper (Section 3.1.2 versioning, maintenance plane)";
      description =
        "Restart latency, read amplification, reclaimed bytes and foreground interference \
         across snapshot-chain depths: BlobSeer retention/compaction vs qcow2 delta chains \
         with and without collapse";
      run = (fun scale ~progress -> tables_only (Chains.tables scale ~progress));
    };
    {
      id = "precopy";
      paper_ref = "Beyond the paper (Section 3.2 snapshotting, live checkpointing)";
      description =
        "Guest-observed suspend window, checkpoint latency, shipped bytes and \
         copy-on-write interference for live (pre-copy + background commit) vs \
         stop-the-world checkpoints, interval x dirty-rate x pre-copy-rounds sweep";
      run = with_points Precopy.run Precopy.tables_of Precopy.point_json;
    };
    {
      id = "abl-prefetch";
      paper_ref = "Ablation (Section 3.1.4)";
      description = "Restart time with adaptive prefetching enabled vs disabled";
      run =
        (fun scale ~progress ->
          tables_only [ ("abl-prefetch", Ablations.prefetch scale ~progress) ]);
    };
    {
      id = "abl-stripe";
      paper_ref = "Ablation (Section 4.2.1)";
      description = "Checkpoint/restart time across BlobSeer stripe sizes";
      run =
        (fun scale ~progress ->
          tables_only [ ("abl-stripe", Ablations.stripe_size scale ~progress) ]);
    };
    {
      id = "abl-replication";
      paper_ref = "Ablation (Section 3.1.1)";
      description = "Checkpoint cost of chunk replication factors 1-3";
      run =
        (fun scale ~progress ->
          tables_only [ ("abl-replication", Ablations.replication scale ~progress) ]);
    };
    {
      id = "abl-incremental";
      paper_ref = "Ablation (Section 3.1.3)";
      description = "Incremental COMMIT vs whole-image re-commit across successive checkpoints";
      run =
        (fun scale ~progress ->
          tables_only [ ("abl-incremental", Ablations.incremental scale ~progress) ]);
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
(* The six distinct paper sweeps (they emit all nine paper artifacts) and
   the four ablations. *)
let groups =
  [
    ("all", fun _ -> true);
    ("paper", fun e -> List.mem e.id [ "fig2a"; "fig2b"; "fig4"; "fig5a"; "fig6"; "table1" ]);
    ("ablations", fun e -> String.starts_with ~prefix:"abl-" e.id);
  ]

let select names =
  let rec go picked = function
    | [] -> Ok (List.rev picked)
    | name :: rest -> (
        let add picked e = if List.memq e picked then picked else e :: picked in
        match (List.assoc_opt name groups, find name) with
        | Some member, _ -> go (List.fold_left add picked (List.filter member all)) rest
        | None, Some e -> go (add picked e) rest
        | None, None -> Error (Fmt.str "unknown experiment %S" name))
  in
  go [] names

let render ?csv_dir result =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, table) ->
      Buffer.add_string buf (Stats.render table);
      Buffer.add_char buf '\n';
      match csv_dir with
      | Some dir ->
          let path = Stats.write_csv ~dir ~name table in
          Buffer.add_string buf (Fmt.str "(csv written to %s)\n\n" path)
      | None -> ())
    result.tables;
  Buffer.contents buf

let execute e scale ~observe ~progress =
  if observe then
    let result, run = Obs.Record.capture (fun () -> e.run scale ~progress) in
    (result, Some run)
  else (e.run scale ~progress, None)

let write_points e result =
  Option.map
    (fun document ->
      let path = Printf.sprintf "BENCH_%s.json" e.id in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc document);
      path)
    result.points

let render_observability run =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "-- observability: metrics --\n";
  Buffer.add_string buf (Obs.Export.metrics_table run);
  List.iter
    (fun (root, title) ->
      let t = Obs.Export.phase_table run ~root in
      if t <> "" then begin
        Buffer.add_string buf (Fmt.str "\n-- observability: %s phase breakdown --\n" title);
        Buffer.add_string buf t
      end)
    [ ("ckpt", "checkpoint"); ("restart", "restart") ];
  Buffer.contents buf
