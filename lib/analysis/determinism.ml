open Simcore

type divergence = {
  line_no : int;
  context : string list;
  first : string option;
  second : string option;
}

type report = {
  name : string;
  seed : int;
  lines : int * int;
  first_divergence : divergence option;
  outputs_match : bool;
}

let identical r = r.first_divergence = None && r.outputs_match

let diff_traces ?(context = 3) a b =
  let rec go i before a b =
    match (a, b) with
    | [], [] -> None
    | la :: ra, lb :: rb when String.equal la lb -> go (i + 1) (la :: before) ra rb
    | _ ->
        let first = match a with l :: _ -> Some l | [] -> None in
        let second = match b with l :: _ -> Some l | [] -> None in
        let keep = List.filteri (fun k _ -> k < context) before in
        Some { line_no = i + 1; context = List.rev keep; first; second }
  in
  go 0 [] a b

let compare_runs ~name ?(seed = 42) run =
  let out_a, trace_a = Trace.capture run in
  let out_b, trace_b = Trace.capture run in
  {
    name;
    seed;
    lines = (List.length trace_a, List.length trace_b);
    first_divergence = diff_traces trace_a trace_b;
    outputs_match = String.equal out_a out_b;
  }

let render_outputs (result : Experiments.Registry.result) =
  String.concat "\n"
    (List.map (fun (name, table) -> name ^ "\n" ^ Stats.render table) result.tables)

let check_experiment ~exp ~scale ~seed =
  let scale = { scale with Experiments.Scale.seed } in
  compare_runs ~name:exp.Experiments.Registry.id ~seed (fun () ->
      render_outputs (exp.Experiments.Registry.run scale ~progress:(fun _ -> ())))

(* Scrub-replay determinism: the durability chaos run (silent corruption +
   mid-COMMIT crash + host crash, with a background scrubber) must produce
   the identical scrub/repair event log on every replay — repairs are part
   of the recovery path, so a nondeterministic repair order would make
   restarts unreproducible. The rendered "output" is the scrub log itself;
   the full engine trace is diffed as usual. *)
let check_scrub_replay ?(scale = Experiments.Scale.quick) ~seed () =
  let scale = { scale with Experiments.Scale.seed } in
  compare_runs ~name:"scrub-replay" ~seed (fun () ->
      let chaos = Experiments.Durability.chaos_run scale () in
      Experiments.Durability.render_scrub_log chaos
      ^ Fmt.str "\nfinished=%b recoveries=%d repairs=%d repair_bytes=%d"
          chaos.Experiments.Durability.report.Blobcr.Supervisor.finished
          chaos.Experiments.Durability.report.Blobcr.Supervisor.recoveries
          chaos.Experiments.Durability.scrub_stats.Blobseer.Scrubber.repairs
          chaos.Experiments.Durability.scrub_stats.Blobseer.Scrubber.repair_bytes)

let pp_report ppf r =
  let a, b = r.lines in
  if identical r then
    Fmt.pf ppf "%s (seed %d): deterministic — %d trace lines identical, outputs identical"
      r.name r.seed a
  else begin
    Fmt.pf ppf "%s (seed %d): NON-DETERMINISTIC (%d vs %d trace lines)@," r.name r.seed a b;
    (match r.first_divergence with
    | None -> ()
    | Some d ->
        Fmt.pf ppf "first divergence at trace line %d:@," d.line_no;
        List.iter (Fmt.pf ppf "    %s@,") d.context;
        Fmt.pf ppf "  - %s@," (Option.value ~default:"<end of trace>" d.first);
        Fmt.pf ppf "  + %s@," (Option.value ~default:"<end of trace>" d.second));
    if not r.outputs_match then Fmt.pf ppf "final stats tables differ"
  end
