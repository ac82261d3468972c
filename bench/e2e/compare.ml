(* A/B comparison of two sets of runs.

   BASE.json and NEW.json each hold benchmark output lines — one JSON
   object per (run, workload), as [blobcr_bench --workload ...] prints
   them, appended run after run. The i-th run of a workload in BASE is
   paired with the i-th in NEW, so alternate the two sides when producing
   them. For every (workload, end-to-end metric) this prints both sides'
   median and quartiles, the change as a share of the metric's bound, the
   pair wins, and a verdict:

   - [worse]: the change's median is worse than the parent's by more than
     the bound;
   - [unresolved]: the parent's own spread (its quartile distance) exceeds
     the bound, and the runs of the two sides overlap;
   - [better]: every run of the change beats every run of the parent, or
     the spread is within the bound, the change wins at least 9 of 10
     pairs (ties count for neither) and the medians differ by more than
     the parent's spread;
   - [same]: anything else.

   Returns exit code 1 when any verdict is [worse]. *)

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length (String.trim l) > 0 && (String.trim l).[0] = '{')
  |> List.map (fun l -> Rig.of_json (Json.of_string l))

let values runs ~workload ~metric =
  List.filter_map
    (fun (o : Rig.outcome) ->
      if o.Rig.workload = workload then Option.map (fun (m : Rig.metric) -> m.Rig.value) (Rig.find o metric)
      else None)
    runs

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  base : float * float * float;
  next : float * float * float;
  of_bound : float;  (** worsening as a share of the bound; negative is better *)
  wins : int;
  pairs : int;
  verdict : string;
}

let judge (s : Catalogue.spec) ~workload base next =
  let ((bq1, bmed, bq3) as bq) = Rig.quartiles base and nq = Rig.quartiles next in
  let _, nmed, _ = nq in
  (* Positive when the change is worse, in the metric's own direction. *)
  let worse a b = match s.Catalogue.better with Catalogue.Lower -> b -. a | Catalogue.Higher -> a -. b in
  let change = worse bmed nmed in
  let allowed = match s.bound with Catalogue.Rel r -> r *. Float.abs bmed | Catalogue.Abs a -> a in
  let spread = bq3 -. bq1 in
  let pairs = min (List.length base) (List.length next) in
  let paired = List.combine (List.filteri (fun i _ -> i < pairs) base) (List.filteri (fun i _ -> i < pairs) next) in
  let wins = List.length (List.filter (fun (b, n) -> worse b n < 0.0) paired) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> worse b n < 0.0) base) next in
  let verdict =
    if spread > allowed then if all_better then "better" else "unresolved"
    else if change > allowed then "worse"
    else if -.change > spread && wins * 10 >= pairs * 9 then "better"
    else "same"
  in
  {
    workload;
    metric = s.name;
    unit_ = s.unit_;
    base = bq;
    next = nq;
    of_bound = (if allowed > 0.0 then change /. allowed else if change > 0.0 then Float.infinity else 0.0);
    wins;
    pairs;
    verdict;
  }

let run base_path next_path =
  let base = load base_path and next = load next_path in
  let workloads =
    List.fold_left
      (fun acc (o : Rig.outcome) -> if List.mem o.Rig.workload acc then acc else acc @ [ o.workload ])
      [] base
  in
  let rows =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun (s : Catalogue.spec) ->
            match (values base ~workload ~metric:s.name, values next ~workload ~metric:s.name) with
            | [], _ | _, [] -> None
            | b, n -> Some (judge s ~workload b n))
          Catalogue.end_to_end)
      workloads
  in
  let q (a, m, b) = Printf.sprintf "%.6g [%.6g, %.6g]" m a b in
  Printf.printf "%-14s %-22s %-10s %-36s %-36s %9s %7s  %s\n" "workload" "metric" "unit" "base median [q1, q3]"
    "new median [q1, q3]" "of-bound" "wins" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-22s %-10s %-36s %-36s %9.2f %3d/%-3d  %s\n" r.workload r.metric r.unit_ (q r.base)
        (q r.next) r.of_bound r.wins r.pairs r.verdict)
    rows;
  if List.exists (fun r -> r.verdict = "worse") rows then 1 else 0
