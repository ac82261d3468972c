(* Shape-regression tests: run the experiment harness at quick scale and
   assert the qualitative results the paper reports. These protect the
   reproduction itself — if a model change breaks a headline trend, a test
   fails rather than a figure silently degrading. *)

open Simcore
open Experiments

let scale = Scale.quick
let combo label = Option.get (Combos.find label)

let last xs = List.nth xs (List.length xs - 1)

(* Cache the expensive sweeps across assertions. *)
let successive =
  lazy
    (List.map
       (fun c ->
         (c.Combos.label, Synthetic_sweep.run_successive scale ~combo:c ~rounds:3
                            ~buffer:scale.Scale.buffer_large))
       Combos.all)

let fig4_points =
  lazy
    (List.map
       (fun c ->
         (c.Combos.label, Synthetic_sweep.run_point scale ~combo:c ~n:1
                            ~buffer:scale.Scale.buffer_small))
       Combos.all)

let multi_instance =
  lazy
    (List.map
       (fun c ->
         ( c.Combos.label,
           Synthetic_sweep.run_point scale ~combo:c ~n:4 ~buffer:scale.Scale.buffer_small ))
       [ combo "BlobCR-app"; combo "qcow2-disk-app"; combo "qcow2-full" ])

let get lazy_list label = List.assoc label (Lazy.force lazy_list)

let test_successive_blobcr_flat () =
  let r = get successive "BlobCR-app" in
  let times = r.Synthetic_sweep.round_times in
  let first = List.hd times and final = last times in
  Alcotest.(check bool)
    (Fmt.str "flat: %.2f .. %.2f" first final)
    true
    (final < first *. 1.15)

let test_successive_qcow2_grows () =
  let r = get successive "qcow2-disk-app" in
  let times = r.Synthetic_sweep.round_times in
  let first = List.hd times and final = last times in
  Alcotest.(check bool)
    (Fmt.str "linear growth: %.2f .. %.2f" first final)
    true
    (final > first *. 1.5)

let test_successive_full_grows () =
  let r = get successive "qcow2-full" in
  let times = r.Synthetic_sweep.round_times in
  Alcotest.(check bool) "grows" true (last times > List.hd times *. 1.5)

let test_successive_storage_shapes () =
  (* qcow2-disk accumulates full copies: superlinear storage; BlobCR adds
     roughly a constant per round. *)
  let blobcr = (get successive "BlobCR-app").Synthetic_sweep.cumulative_storage in
  let qcow2 = (get successive "qcow2-disk-app").Synthetic_sweep.cumulative_storage in
  let growth xs = float_of_int (last xs) /. float_of_int (List.hd xs) in
  Alcotest.(check bool)
    (Fmt.str "qcow2 %.1fx vs blobcr %.1fx" (growth qcow2) (growth blobcr))
    true
    (growth qcow2 > growth blobcr *. 1.4)

let test_fig4_full_carries_ram () =
  let full = (get fig4_points "qcow2-full").Synthetic_sweep.snapshot_bytes in
  let disk = (get fig4_points "qcow2-disk-app").Synthetic_sweep.snapshot_bytes in
  let overhead = full -. disk in
  let expected = float_of_int scale.Scale.cal.Blobcr.Calibration.os_ram_overhead in
  Alcotest.(check bool)
    (Fmt.str "overhead %.1fMB ~ %.1fMB" (overhead /. 1048576.) (expected /. 1048576.))
    true
    (overhead > expected *. 0.6)

let test_fig4_blobcr_granularity_overhead () =
  (* BlobCR snapshots are slightly larger (256 KiB chunks vs 64 KiB
     clusters) but within a few percent at these sizes. *)
  let blobcr = (get fig4_points "BlobCR-app").Synthetic_sweep.snapshot_bytes in
  let qcow2 = (get fig4_points "qcow2-disk-app").Synthetic_sweep.snapshot_bytes in
  Alcotest.(check bool)
    (Fmt.str "blobcr %.2fMB >= qcow2 %.2fMB" (blobcr /. 1048576.) (qcow2 /. 1048576.))
    true
    (blobcr >= qcow2);
  Alcotest.(check bool) "bounded" true (blobcr < qcow2 *. 2.0)

let test_multi_instance_blobcr_wins_checkpoint () =
  let b = (get multi_instance "BlobCR-app").Synthetic_sweep.checkpoint_time in
  let q = (get multi_instance "qcow2-disk-app").Synthetic_sweep.checkpoint_time in
  let f = (get multi_instance "qcow2-full").Synthetic_sweep.checkpoint_time in
  Alcotest.(check bool) (Fmt.str "blobcr %.2f <= qcow2 %.2f" b q) true (b <= q);
  Alcotest.(check bool) (Fmt.str "full %.2f worst (vs %.2f)" f q) true (f > q)

let test_multi_instance_full_restart_worst () =
  let b = (get multi_instance "BlobCR-app").Synthetic_sweep.restart_time in
  let f = (get multi_instance "qcow2-full").Synthetic_sweep.restart_time in
  Alcotest.(check bool) (Fmt.str "full %.2f > blobcr %.2f" f b) true (f > b)

let test_cm1_blcr_bigger_than_app () =
  (* Subdomain state large enough that the dump payload dominates the
     boot-noise chunks both snapshots share — the ratio then reflects the
     process_mem_factor, not incidental COW rounding. *)
  let big =
    {
      scale with
      Scale.cm1_config =
        { scale.Scale.cm1_config with Workloads.Cm1.subdomain_state_bytes = 2 * Size.mib };
    }
  in
  let app = Cm1_sweep.run_point big ~combo:(combo "BlobCR-app") ~vms:2 in
  let blcr = Cm1_sweep.run_point big ~combo:(combo "BlobCR-blcr") ~vms:2 in
  let ratio = blcr.Cm1_sweep.snapshot_bytes /. app.Cm1_sweep.snapshot_bytes in
  Alcotest.(check bool) (Fmt.str "ratio %.2f in [1.5, 4.5]" ratio) true
    (ratio > 1.5 && ratio < 4.5)

let test_registry_runs_everything () =
  (* Every registered experiment must run end to end at quick scale and
     produce non-empty tables. *)
  List.iter
    (fun id ->
      match Registry.find id with
      | None -> Alcotest.failf "missing experiment %s" id
      | Some e ->
          let tables = (e.Registry.run scale ~progress:(fun _ -> ())).Registry.tables in
          Alcotest.(check bool) (id ^ " produces output") true (tables <> []);
          List.iter
            (fun (_, table) ->
              let rendered = Stats.render table in
              Alcotest.(check bool) (id ^ " renders") true (String.length rendered > 40))
            tables)
    [ "fig4"; "table1" ]

let test_durability_sweep_smoke () =
  (* One cell per (corrupt-weight, replication, scrub-interval) at quick
     scale: the corruption-free cell must finish and never trip a checksum
     failover; the corrupting cell must actually inject corruption. *)
  let points = Durability.sweep scale ~progress:ignore in
  Alcotest.(check int) "cells"
    (List.length scale.Scale.durability_corrupt_weights
    * List.length scale.Scale.durability_replications
    * List.length scale.Scale.durability_scrub_intervals)
    (List.length points);
  let clean = List.find (fun p -> p.Durability.corrupt_weight = 0) points in
  Alcotest.(check bool) "corruption-free cell finished" true clean.Durability.finished;
  Alcotest.(check int) "no corruption, no checksum failovers" 0
    clean.Durability.integrity_failovers;
  List.iter
    (fun (p : Durability.point) ->
      Alcotest.(check bool) "checkpoint cost positive" true (p.Durability.checkpoint_cost > 0.0);
      if p.Durability.corrupt_weight > 0 then
        Alcotest.(check bool) "corruption injected" true (p.Durability.corruptions > 0))
    points

let test_registry_groups () =
  let selected names =
    match Registry.select names with
    | Ok exps -> List.map (fun e -> e.Registry.id) exps
    | Error msg -> Alcotest.fail msg
  in
  let ids = Alcotest.(check (list string)) in
  ids "paper" [ "fig2a"; "fig2b"; "fig4"; "fig5a"; "fig6"; "table1" ] (selected [ "paper" ]);
  ids "ablations"
    [ "abl-prefetch"; "abl-stripe"; "abl-replication"; "abl-incremental" ]
    (selected [ "ablations" ]);
  ids "all" (List.map (fun e -> e.Registry.id) Registry.all) (selected [ "all" ]);
  ids "names keep their order, each experiment once"
    [ "fig4"; "fig2a"; "fig2b"; "fig5a"; "fig6"; "table1"; "dedup" ]
    (selected [ "fig4"; "paper"; "dedup"; "fig2b" ]);
  Alcotest.(check bool) "unknown id rejected" true
    (Result.is_error (Registry.select [ "fig2a"; "no-such-experiment" ]))

let test_sweep_is_deterministic () =
  let p1 =
    Synthetic_sweep.run_point scale ~combo:(combo "BlobCR-app") ~n:2
      ~buffer:scale.Scale.buffer_small
  in
  let p2 =
    Synthetic_sweep.run_point scale ~combo:(combo "BlobCR-app") ~n:2
      ~buffer:scale.Scale.buffer_small
  in
  Alcotest.(check (float 0.0)) "checkpoint time" p1.Synthetic_sweep.checkpoint_time
    p2.Synthetic_sweep.checkpoint_time;
  Alcotest.(check (float 0.0)) "restart time" p1.Synthetic_sweep.restart_time
    p2.Synthetic_sweep.restart_time

let () =
  Alcotest.run "experiments"
    [
      ( "fig5-shapes",
        [
          Alcotest.test_case "blobcr successive flat" `Slow test_successive_blobcr_flat;
          Alcotest.test_case "qcow2-disk successive grows" `Slow test_successive_qcow2_grows;
          Alcotest.test_case "qcow2-full successive grows" `Slow test_successive_full_grows;
          Alcotest.test_case "storage shapes" `Slow test_successive_storage_shapes;
        ] );
      ( "fig4-shapes",
        [
          Alcotest.test_case "full snapshot carries RAM" `Slow test_fig4_full_carries_ram;
          Alcotest.test_case "granularity overhead bounded" `Slow
            test_fig4_blobcr_granularity_overhead;
        ] );
      ( "fig2-3-shapes",
        [
          Alcotest.test_case "blobcr wins checkpoint" `Slow
            test_multi_instance_blobcr_wins_checkpoint;
          Alcotest.test_case "full restart worst" `Slow test_multi_instance_full_restart_worst;
        ] );
      ( "table1-shapes",
        [ Alcotest.test_case "blcr dumps bigger than app" `Slow test_cm1_blcr_bigger_than_app ] );
      ( "durability",
        [ Alcotest.test_case "sweep smoke" `Slow test_durability_sweep_smoke ] );
      ( "harness",
        [
          Alcotest.test_case "registry runs" `Slow test_registry_runs_everything;
          Alcotest.test_case "registry groups" `Quick test_registry_groups;
          Alcotest.test_case "deterministic" `Slow test_sweep_is_deterministic;
        ] );
    ]
