open Simcore

type progress = string -> unit

let mib = float_of_int Size.mib

(* One series per approach combination, in the order the sweep ran them. *)
let by_combo combo = Stats.group ~key:(fun p -> (combo p).Combos.label) ~label:Fun.id

let pp_point (p : Synthetic_sweep.point) =
  Fmt.str "%-16s n=%3d  checkpoint=%7.2fs  restart=%7.2fs  snapshot=%s"
    p.combo.Combos.label p.n p.checkpoint_time p.restart_time
    (Size.to_string (int_of_float p.snapshot_bytes))

let fig2_3 scale ~buffer ~tag ~progress =
  let points =
    Synthetic_sweep.sweep scale ~buffer ~progress:(fun p -> progress (pp_point p))
  in
  let buffer_label = Size.to_string buffer in
  let ckpt =
    Stats.table
      ~title:(Fmt.str "Figure 2(%s): checkpoint completion time, %s buffer" tag buffer_label)
      ~x_label:"instances" ~y_label:"time (s)"
      (by_combo
         (fun p -> p.Synthetic_sweep.combo)
         ~x:(fun p -> float_of_int p.Synthetic_sweep.n)
         ~y:(fun p -> p.Synthetic_sweep.checkpoint_time)
         points)
  in
  let restart =
    Stats.table
      ~title:(Fmt.str "Figure 3(%s): restart completion time, %s buffer" tag buffer_label)
      ~x_label:"hosts" ~y_label:"time (s)"
      (by_combo
         (fun p -> p.Synthetic_sweep.combo)
         ~x:(fun p -> float_of_int p.Synthetic_sweep.n)
         ~y:(fun p -> p.Synthetic_sweep.restart_time)
         points)
  in
  (ckpt, restart)

let fig4 (scale : Scale.t) ~progress =
  let points =
    List.concat_map
      (fun buffer ->
        List.map
          (fun combo ->
            let p = Synthetic_sweep.run_point scale ~combo ~n:1 ~buffer in
            progress (pp_point p);
            (buffer, p))
          Combos.all)
      [ scale.Scale.buffer_small; scale.Scale.buffer_large ]
  in
  Stats.table ~title:"Figure 4: snapshot size per VM instance" ~x_label:"buffer (MB)"
    ~y_label:"snapshot size (MB)"
    (by_combo
       (fun (_, p) -> p.Synthetic_sweep.combo)
       ~x:(fun (buffer, _) -> float_of_int buffer /. mib)
       ~y:(fun (_, p) -> p.Synthetic_sweep.snapshot_bytes /. mib)
       points)

let fig5 (scale : Scale.t) ~progress =
  let rounds = scale.Scale.successive_checkpoints in
  let results =
    List.map
      (fun (combo : Combos.t) ->
        let r =
          Synthetic_sweep.run_successive scale ~combo ~rounds
            ~buffer:scale.Scale.buffer_large
        in
        progress
          (Fmt.str "%-16s times=[%s] storage=[%s]" combo.label
             (String.concat "; "
                (List.map (Fmt.str "%.2f") r.Synthetic_sweep.round_times))
             (String.concat "; "
                (List.map
                   (fun b -> Fmt.str "%.0fMB" (float_of_int b /. mib))
                   r.Synthetic_sweep.cumulative_storage)));
        (combo, r))
      Combos.all
  in
  let mk ~title ~y_label extract scale_y =
    Stats.table ~title ~x_label:"checkpoint #" ~y_label
      (List.map
         (fun ((combo : Combos.t), r) ->
           let s = Stats.series combo.label in
           List.iteri
             (fun i v -> Stats.add s ~x:(float_of_int (i + 1)) ~y:(scale_y v))
             (extract r);
           s)
         results)
  in
  let times =
    mk ~title:"Figure 5(a): successive checkpoints, completion time" ~y_label:"time (s)"
      (fun r -> r.Synthetic_sweep.round_times)
      Fun.id
  in
  let storage =
    mk ~title:"Figure 5(b): successive checkpoints, total storage" ~y_label:"storage (MB)"
      (fun r -> List.map float_of_int r.Synthetic_sweep.cumulative_storage)
      (fun b -> b /. mib)
  in
  (times, storage)

let pp_cm1_point (p : Cm1_sweep.point) =
  Fmt.str "%-16s vms=%3d procs=%4d  checkpoint=%7.2fs  snapshot=%s"
    p.combo.Combos.label p.vms p.processes p.checkpoint_time
    (Size.to_string (int_of_float p.snapshot_bytes))

let fig6 scale ~progress =
  let points = Cm1_sweep.sweep scale ~progress:(fun p -> progress (pp_cm1_point p)) in
  Stats.table ~title:"Figure 6: CM1 checkpoint performance" ~x_label:"processes"
    ~y_label:"time (s)"
    (by_combo
       (fun p -> p.Cm1_sweep.combo)
       ~x:(fun p -> float_of_int p.Cm1_sweep.processes)
       ~y:(fun p -> p.Cm1_sweep.checkpoint_time)
       points)

let table1 (scale : Scale.t) ~progress =
  let vms = List.hd scale.Scale.cm1_vm_counts in
  let columns =
    List.map
      (fun (combo : Combos.t) ->
        let p = Cm1_sweep.run_point scale ~combo ~vms in
        progress (pp_cm1_point p);
        let s = Stats.series combo.label in
        Stats.add s
          ~x:(float_of_int scale.Scale.cm1_config.Workloads.Cm1.procs_per_vm)
          ~y:(p.snapshot_bytes /. mib);
        s)
      Combos.disk_only
  in
  Stats.table ~title:"Table 1: CM1 per disk snapshot size" ~x_label:"procs/VM"
    ~y_label:"snapshot size (MB)" columns
