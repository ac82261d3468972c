(* End-to-end tests for the BlobCR core: VM lifecycle, guest FS, blcr, the
   checkpoint proxy, all three image stacks (deploy → checkpoint → kill →
   restart), rollback semantics, the coordinated protocol, CM1, and garbage
   collection. *)

open Simcore
open Vmsim
open Blobcr
open Workloads

let quick = Calibration.quick_test
let mib = Size.mib

let build () = Cluster.build ~seed:7 quick

(* ------------------------------------------------------------------ *)
(* Guest_fs on an in-memory device *)

let test_guest_fs_basics () =
  let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 16) in
  let fs = Guest_fs.format dev in
  Guest_fs.write_file fs ~path:"/a" (Payload.of_string "alpha");
  Guest_fs.append_file fs ~path:"/a" (Payload.of_string "beta");
  Alcotest.(check string) "read" "alphabeta" (Payload.to_string (Guest_fs.read_file fs ~path:"/a"));
  Alcotest.(check int) "size" 9 (Guest_fs.file_size fs ~path:"/a");
  Alcotest.(check (list string)) "list" [ "/a" ] (Guest_fs.list_files fs)

let test_guest_fs_persistence_via_mount () =
  let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 16) in
  let fs = Guest_fs.format dev in
  Guest_fs.write_file fs ~path:"/data/x" (Payload.of_string "persisted");
  Guest_fs.write_file fs ~path:"/data/y" (Payload.pattern ~seed:5L 10000);
  Guest_fs.sync fs;
  (* A different mount of the same device sees the files. *)
  let fs' = Guest_fs.mount dev in
  Alcotest.(check string) "x" "persisted" (Payload.to_string (Guest_fs.read_file fs' ~path:"/data/x"));
  Alcotest.(check bool) "y content" true
    (Payload.equal (Payload.pattern ~seed:5L 10000) (Guest_fs.read_file fs' ~path:"/data/y"));
  Alcotest.(check (list string)) "all files" [ "/data/x"; "/data/y" ] (Guest_fs.list_files fs')

let test_guest_fs_unsynced_writes_not_on_device () =
  let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 16) in
  let fs = Guest_fs.format dev in
  Guest_fs.sync fs;
  Guest_fs.write_file fs ~path:"/late" (Payload.of_string "in cache only");
  Alcotest.(check int) "dirty" 13 (Guest_fs.dirty_bytes fs);
  let fs' = Guest_fs.mount dev in
  Alcotest.(check bool) "not visible before sync" false (Guest_fs.exists fs' ~path:"/late")

let test_guest_fs_delete_and_reuse () =
  let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 16) in
  let fs = Guest_fs.format dev in
  Guest_fs.write_file fs ~path:"/big" (Payload.pattern ~seed:1L (Size.mib_n 2));
  Guest_fs.sync fs;
  let used = Guest_fs.used_bytes fs in
  Guest_fs.delete_file fs ~path:"/big";
  Guest_fs.write_file fs ~path:"/big2" (Payload.pattern ~seed:2L (Size.mib_n 2));
  Guest_fs.sync fs;
  Alcotest.(check int) "space reused" used (Guest_fs.used_bytes fs);
  Alcotest.(check bool) "old gone" false (Guest_fs.exists fs ~path:"/big")

let test_guest_fs_full () =
  let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 6) in
  let fs = Guest_fs.format dev in
  Guest_fs.write_file fs ~path:"/huge" (Payload.zero (Size.mib_n 4));
  Alcotest.check_raises "fs full" Guest_fs.Fs_full (fun () -> Guest_fs.sync fs)

(* qcheck: Guest_fs against a model. The model keeps each file's contents
   and dirty flag, plus the files as of the last [sync], which is what a
   [mount] of the device finds. Reads happen only on [Read] steps, so
   buffered appends stay unfolded across the other steps. *)
type fs_op =
  | Write of int * int
  | Append of int * int
  | Sync
  | Read of int
  | Delete of int
  | Mount

let fs_path i = Fmt.str "/f%d" i

(* Distinct short contents: [n] letters starting at letter [n mod 26]. *)
let fs_content n = String.init n (fun i -> Char.chr (97 + ((n + i) mod 26)))

let print_fs_op = function
  | Write (f, n) -> Fmt.str "write %s %d" (fs_path f) n
  | Append (f, n) -> Fmt.str "append %s %d" (fs_path f) n
  | Sync -> "sync"
  | Read f -> Fmt.str "read %s" (fs_path f)
  | Delete f -> Fmt.str "delete %s" (fs_path f)
  | Mount -> "mount"

let fs_op_gen =
  QCheck.Gen.(
    let file = int_bound 2 and len = int_bound 40 in
    frequency
      [
        (3, map2 (fun f n -> Write (f, n)) file len);
        (5, map2 (fun f n -> Append (f, n)) file len);
        (2, return Sync);
        (3, map (fun f -> Read f) file);
        (1, map (fun f -> Delete f) file);
        (1, return Mount);
      ])

let prop_guest_fs_matches_model =
  QCheck.Test.make ~name:"guest_fs: contents, sizes and dirty bytes match a model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_fs_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_bound 40) fs_op_gen))
    (fun ops ->
      let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 8) in
      let fs = ref (Guest_fs.format dev) in
      Guest_fs.sync !fs;
      (* path -> (contents, dirty) live; path -> contents as last synced *)
      let live = Hashtbl.create 4 and synced = Hashtbl.create 4 in
      let failure = ref None in
      let fail fmt = Fmt.kstr (fun msg -> if !failure = None then failure := Some msg) fmt in
      let step op =
        match op with
        | Write (f, n) ->
            Guest_fs.write_file !fs ~path:(fs_path f) (Payload.of_string (fs_content n));
            Hashtbl.replace live (fs_path f) (fs_content n, true)
        | Append (f, n) ->
            Guest_fs.append_file !fs ~path:(fs_path f) (Payload.of_string (fs_content n));
            let old = Option.fold ~none:"" ~some:fst (Hashtbl.find_opt live (fs_path f)) in
            Hashtbl.replace live (fs_path f) (old ^ fs_content n, true)
        | Sync ->
            Guest_fs.sync !fs;
            Hashtbl.reset synced;
            Hashtbl.filter_map_inplace
              (fun path (contents, _) ->
                Hashtbl.replace synced path contents;
                Some (contents, false))
              live
        | Read f -> (
            let path = fs_path f in
            match (Hashtbl.find_opt live path, Guest_fs.read_file !fs ~path) with
            | Some (contents, _), got ->
                if Payload.to_string got <> contents then
                  fail "%s reads %S, model %S" path (Payload.to_string got) contents
            | None, _ -> fail "%s read succeeded on a missing file" path
            | exception Not_found ->
                if Hashtbl.mem live path then fail "%s missing on read" path)
        | Delete f -> (
            let path = fs_path f in
            match Guest_fs.delete_file !fs ~path with
            | () -> Hashtbl.remove live path
            | exception Not_found ->
                if Hashtbl.mem live path then fail "%s missing on delete" path)
        | Mount ->
            fs := Guest_fs.mount dev;
            Hashtbl.reset live;
            Hashtbl.iter (fun path contents -> Hashtbl.replace live path (contents, false)) synced
      in
      let check op =
        let files = Hashtbl.fold (fun path _ acc -> path :: acc) live [] |> List.sort compare in
        if Guest_fs.list_files !fs <> files then fail "after %s: file list differs" (print_fs_op op);
        Hashtbl.iter
          (fun path (contents, _) ->
            if Guest_fs.exists !fs ~path && Guest_fs.file_size !fs ~path <> String.length contents
            then fail "after %s: %s size differs" (print_fs_op op) path)
          live;
        let dirty = Hashtbl.fold (fun _ (c, d) acc -> if d then acc + String.length c else acc) live 0 in
        if Guest_fs.dirty_bytes !fs <> dirty then
          fail "after %s: dirty_bytes %d, model %d" (print_fs_op op) (Guest_fs.dirty_bytes !fs) dirty
      in
      List.iter
        (fun op ->
          if !failure = None then begin
            step op;
            check op
          end)
        ops;
      match !failure with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Deploy / checkpoint / restart per approach *)

let fresh_instance cluster kind ~node_index ~id =
  Approach.deploy cluster kind ~node:(Cluster.node cluster node_index) ~id

let all_kinds = [ Approach.Blobcr; Approach.Qcow2_disk; Approach.Qcow2_full ]

let test_deploy_and_boot kind () =
  let cluster = build () in
  let state =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster kind ~node_index:0 ~id:"vm0" in
        Vm.state inst.Approach.vm)
  in
  Alcotest.(check bool) "running" true (state = Vm.Running)

let test_checkpoint_restart_roundtrip kind () =
  let cluster = build () in
  let ok =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster kind ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(4 * mib) in
        let before = Payload.digest (Synthetic.buffer bench) in
        Synthetic.dump_app bench;
        let snapshot = Approach.request_checkpoint cluster inst in
        Approach.kill inst;
        (* Restart on a different node, per the paper's methodology. *)
        let inst' =
          Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0r" snapshot
        in
        let restored =
          match kind with
          | Approach.Qcow2_full -> Synthetic.resume_in_memory inst'
          | _ -> Synthetic.restore_app inst'
        in
        match kind with
        | Approach.Qcow2_full ->
            (* State travels in RAM; verify the process footprint. *)
            Payload.length (Synthetic.buffer restored) = 4 * mib
        | _ -> Payload.digest (Synthetic.buffer restored) = before)
  in
  Alcotest.(check bool) "state restored" true ok

let test_blcr_checkpoint_restart kind () =
  let cluster = build () in
  let size =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster kind ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(2 * mib) in
        Synthetic.dump_blcr bench;
        let snapshot = Approach.request_checkpoint cluster inst in
        Approach.kill inst;
        let inst' =
          Approach.restart cluster ~node:(Cluster.node cluster 2) ~id:"vm0r" snapshot
        in
        let restored = Synthetic.restore_blcr inst' in
        Payload.length (Synthetic.buffer restored))
  in
  Alcotest.(check int) "blcr dump restored" (2 * mib) size

let test_filesystem_rollback kind () =
  (* The paper's headline semantic feature: file modifications made after
     the checkpoint are rolled back on restart. *)
  let cluster = build () in
  let exists_good, exists_corruption =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster kind ~node_index:0 ~id:"vm0" in
        let fs = Vm.fs inst.Approach.vm in
        Guest_fs.write_file fs ~path:"/result/good" (Payload.of_string "committed");
        Guest_fs.sync fs;
        let snapshot = Approach.request_checkpoint cluster inst in
        (* Post-checkpoint writes: a log line and a corrupted result. *)
        Guest_fs.append_file fs ~path:"/result/good" (Payload.of_string "GARBAGE");
        Guest_fs.write_file fs ~path:"/result/corrupt" (Payload.of_string "bad");
        Guest_fs.sync fs;
        Approach.kill inst;
        let inst' =
          Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0r" snapshot
        in
        let fs' = Vm.fs inst'.Approach.vm in
        ( Payload.to_string (Guest_fs.read_file fs' ~path:"/result/good"),
          Guest_fs.exists fs' ~path:"/result/corrupt" ))
  in
  Alcotest.(check string) "pre-checkpoint content exact" "committed" exists_good;
  Alcotest.(check bool) "post-checkpoint write rolled back" false exists_corruption

let test_blobcr_snapshot_is_incremental () =
  let cluster = build () in
  let first, second =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(4 * mib) in
        Synthetic.dump_app bench;
        let s1 = Approach.request_checkpoint cluster inst in
        Synthetic.refill bench;
        Synthetic.dump_app bench;
        let s2 = Approach.request_checkpoint cluster inst in
        (Approach.snapshot_bytes s1, Approach.snapshot_bytes s2))
  in
  (* First snapshot: buffer + FS metadata + boot noise. Second: only the
     new buffer dump + metadata. *)
  Alcotest.(check bool) (Fmt.str "first %d covers buffer" first) true (first >= 4 * mib);
  Alcotest.(check bool)
    (Fmt.str "second (%d) incremental, no re-upload of noise (%d)" second first)
    true
    (second >= 4 * mib && second < first);
  Alcotest.(check bool) "bounded overhead" true (first < 4 * mib + (8 * mib))

let test_qcow2_disk_snapshots_grow () =
  let cluster = build () in
  let s1, s2 =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Qcow2_disk ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(4 * mib) in
        Synthetic.dump_app bench;
        let s1 = Approach.request_checkpoint cluster inst in
        Synthetic.refill bench;
        Synthetic.dump_app bench;
        let s2 = Approach.request_checkpoint cluster inst in
        (Approach.snapshot_bytes s1, Approach.snapshot_bytes s2))
  in
  Alcotest.(check bool)
    (Fmt.str "second full copy (%d) larger than first (%d)" s2 s1)
    true
    (s2 > s1 + (3 * mib))

let test_full_snapshot_carries_ram_overhead () =
  let cluster = build () in
  let full_bytes, disk_bytes =
    Cluster.run cluster (fun () ->
        let mk kind id node_index =
          let inst = fresh_instance cluster kind ~node_index ~id in
          let bench = Synthetic.start inst ~buffer_bytes:(4 * mib) in
          Synthetic.dump_app bench;
          Approach.snapshot_bytes (Approach.request_checkpoint cluster inst)
        in
        let full = mk Approach.Qcow2_full "vmf" 0 in
        let disk = mk Approach.Qcow2_disk "vmd" 1 in
        (full, disk))
  in
  Alcotest.(check bool)
    (Fmt.str "full (%d) exceeds disk (%d) by ~os ram overhead" full_bytes disk_bytes)
    true
    (full_bytes - disk_bytes > quick.Calibration.os_ram_overhead / 2)

let test_proxy_rejects_foreign_vm () =
  let cluster = build () in
  let raised =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let foreign_proxy = Ckpt_proxy.create cluster ~node:(Cluster.node cluster 3) in
        try
          ignore
            (Ckpt_proxy.request foreign_proxy ~vm:inst.Approach.vm
               ~suspended:(fun () -> ()) ~shipped:Fun.id);
          false
        with Ckpt_proxy.Not_local -> true)
  in
  Alcotest.(check bool) "authentication" true raised

let test_proxy_resumes_vm_on_snapshot_failure () =
  let cluster = build () in
  let state, failures =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        (try
           ignore
             (Ckpt_proxy.request inst.Approach.proxy ~vm:inst.Approach.vm
                ~suspended:(fun () -> failwith "snapshot exploded") ~shipped:Fun.id)
         with Failure _ -> ());
        (Vm.state inst.Approach.vm, Ckpt_proxy.failures inst.Approach.proxy))
  in
  Alcotest.(check bool) "vm resumed" true (state = Vm.Running);
  Alcotest.(check int) "failure counted" 1 failures

let test_vm_suspend_blocks_guest () =
  let cluster = build () in
  let progressed_while_suspended, progressed_after =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let vm = inst.Approach.vm in
        let steps = ref 0 in
        let _ =
          Engine.Fiber.spawn cluster.Cluster.engine ~group:(Vm.group vm) (fun () ->
              for _ = 1 to 1000 do
                Vm.pause_point vm;
                Engine.sleep cluster.Cluster.engine 0.1;
                incr steps
              done)
        in
        Engine.sleep cluster.Cluster.engine 1.0;
        Vm.suspend vm;
        let at_suspend = !steps in
        Engine.sleep cluster.Cluster.engine 5.0;
        let during = !steps - at_suspend in
        Vm.resume vm;
        Engine.sleep cluster.Cluster.engine 2.0;
        (during, !steps - at_suspend))
  in
  (* At most one in-flight step may finish after suspension. *)
  Alcotest.(check bool) "frozen" true (progressed_while_suspended <= 1);
  Alcotest.(check bool) "resumed" true (progressed_after > 5)

(* ------------------------------------------------------------------ *)
(* Global protocol *)

let test_global_checkpoint_restart_many () =
  let cluster = build () in
  let digests_before, digests_after =
    Cluster.run cluster (fun () ->
        let instances =
          List.map
            (fun i ->
              fresh_instance cluster Approach.Blobcr ~node_index:i ~id:(Fmt.str "vm%d" i))
            [ 0; 1 ]
        in
        let benches =
          List.map (fun inst -> Synthetic.start inst ~buffer_bytes:(2 * mib)) instances
        in
        let digests_before =
          List.map (fun b -> Payload.digest (Synthetic.buffer b)) benches
        in
        let by_instance = List.combine instances benches in
        let snapshots =
          Protocol.global_checkpoint_exn cluster ~instances ~dump:(fun inst ->
              Synthetic.dump_app (List.assq inst by_instance))
        in
        Protocol.kill_all instances;
        (* Redeploy on the complementary nodes. *)
        let plan =
          List.mapi
            (fun i snapshot -> (Cluster.node cluster (2 + i), Fmt.str "vm%dr" i, snapshot))
            snapshots
        in
        let restored = ref [] in
        let new_instances =
          Protocol.global_restart_exn cluster ~plan ~restore:(fun inst ->
              let bench = Synthetic.restore_app inst in
              restored := bench :: !restored)
        in
        ignore new_instances;
        let digests_after =
          List.rev_map (fun b -> Payload.digest (Synthetic.buffer b)) !restored
          |> List.sort compare
        in
        (List.sort compare digests_before, digests_after))
  in
  Alcotest.(check (list int64)) "all buffers restored" digests_before digests_after

let test_cm1_iterates_and_survives_restart () =
  let cluster = build () in
  let before, after =
    Cluster.run cluster (fun () ->
        let instances =
          List.map
            (fun i ->
              fresh_instance cluster Approach.Blobcr ~node_index:i ~id:(Fmt.str "cm1-%d" i))
            [ 0; 1 ]
        in
        let cm1 =
          Cm1.setup cluster ~instances
            {
              Cm1.default_config with
              procs_per_vm = 2;
              subdomain_state_bytes = 256 * Size.kib;
              compute_per_iteration = 0.01;
              summary_every = 5;
            }
        in
        Cm1.iterate cm1 10;
        let before = List.concat_map (Cm1.subdomain_digests cm1) instances in
        let snapshots =
          Protocol.global_checkpoint_exn cluster ~instances ~dump:(Cm1.dump_app cm1)
        in
        Cm1.iterate cm1 7;
        Protocol.kill_all instances;
        let plan =
          List.mapi
            (fun i snapshot -> (Cluster.node cluster (2 + i), Fmt.str "cm1-%dr" i, snapshot))
            snapshots
        in
        let new_instances =
          Protocol.global_restart_exn cluster ~plan ~restore:(fun _ -> ())
        in
        (* Rebind the workload to the restarted instances and reload the
           subdomains from the snapshot. *)
        let cm1' =
          Cm1.setup cluster ~instances:new_instances
            {
              Cm1.default_config with
              procs_per_vm = 2;
              subdomain_state_bytes = 256 * Size.kib;
            }
        in
        List.iter (Cm1.restore_app cm1') new_instances;
        let after = List.concat_map (Cm1.subdomain_digests cm1') new_instances in
        (before, after))
  in
  Alcotest.(check (list int64)) "subdomains roll back to the checkpoint" before after

let test_cm1_blcr_dump_sizes () =
  let cluster = build () in
  let app_size, blcr_size =
    Cluster.run cluster (fun () ->
        let mk id node_index =
          fresh_instance cluster Approach.Blobcr ~node_index ~id
        in
        (* State large enough that the dump payload dominates the shared
           boot-noise chunks; the size ratio then reflects the 2.9x memory
           factor instead of incidental COW rounding. *)
        let cfg =
          {
            Cm1.default_config with
            procs_per_vm = 2;
            subdomain_state_bytes = 2 * Size.mib;
          }
        in
        let inst_a = mk "a" 0 in
        let cm_a = Cm1.setup cluster ~instances:[ inst_a ] cfg in
        Cm1.dump_app cm_a inst_a;
        let s_app = Approach.request_checkpoint cluster inst_a in
        let inst_b = mk "b" 1 in
        let cm_b = Cm1.setup cluster ~instances:[ inst_b ] cfg in
        Cm1.dump_blcr cm_b inst_b;
        let s_blcr = Approach.request_checkpoint cluster inst_b in
        (Approach.snapshot_bytes s_app, Approach.snapshot_bytes s_blcr))
  in
  (* blcr dumps all allocated memory: ~2.9x the subdomain state. *)
  Alcotest.(check bool)
    (Fmt.str "blcr (%d) much larger than app (%d)" blcr_size app_size)
    true
    (float_of_int blcr_size > 1.8 *. float_of_int app_size)

(* ------------------------------------------------------------------ *)
(* Garbage collection *)

(* Retention down to each blob's newest version through a compactor. The
   second pass runs the deferred sweep of the chunks the first one
   queued. *)
let compact_to_latest cluster =
  let open Blobseer in
  let c =
    Compactor.create cluster.Cluster.service ~home:cluster.Cluster.supervisor_host
      ~config:{ Compactor.policy = Retention.Keep_last 1 }
  in
  Compactor.scan c;
  Compactor.scan c;
  Compactor.stats c

let test_gc_reclaims_obsolete_snapshots () =
  let cluster = build () in
  let before, report, after, still_readable =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(2 * mib) in
        let last = ref None in
        for _ = 1 to 4 do
          Synthetic.refill bench;
          (* The application keeps only its newest checkpoint file, so
             older snapshot versions are the sole owners of older data. *)
          Synthetic.dump_app ~retain:1 bench;
          last := Some (Approach.request_checkpoint cluster inst)
        done;
        let before = Blobseer.Client.repository_bytes cluster.Cluster.service in
        let report = compact_to_latest cluster in
        let after = Blobseer.Client.repository_bytes cluster.Cluster.service in
        (* The newest snapshot must remain fully readable. *)
        let readable =
          match !last with
          | Some (Approach.Blobcr_snapshot { image; version }) ->
              let p =
                Blobseer.Client.read image ~from:(Cluster.node cluster 1).Cluster.host
                  ~version ~offset:0 ~len:(1 * mib)
              in
              Payload.length p = 1 * mib
          | _ -> false
        in
        (before, report, after, readable))
  in
  Alcotest.(check bool) "bytes reclaimed" true
    (report.Blobseer.Compactor.bytes_reclaimed > 4 * mib);
  Alcotest.(check bool) "storage shrank" true (after < before);
  Alcotest.(check bool) "versions retired" true
    (report.Blobseer.Compactor.versions_retired >= 3);
  Alcotest.(check bool) "latest snapshot intact" true still_readable

let test_gc_keeps_shared_base_chunks () =
  let cluster = build () in
  let boots_after_gc =
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:mib in
        Synthetic.dump_app bench;
        let snapshot = Approach.request_checkpoint cluster inst in
        ignore (compact_to_latest cluster);
        Approach.kill inst;
        (* Restart still works: base-image chunks shared with the snapshot
           must have survived the sweep. *)
        let inst' =
          Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0r" snapshot
        in
        Vm.state inst'.Approach.vm = Vm.Running)
  in
  Alcotest.(check bool) "restart after gc" true boots_after_gc

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_trace_captures_lifecycle () =
  let scenario () =
    let cluster = build () in
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:mib in
        Synthetic.dump_app bench;
        ignore (Approach.request_checkpoint cluster inst);
        Approach.kill inst)
  in
  let (), lines = Trace.capture scenario in
  let has fragment =
    List.exists
      (fun line ->
        let rec search i =
          i + String.length fragment <= String.length line
          && (String.sub line i (String.length fragment) = fragment || search (i + 1))
        in
        search 0)
      lines
  in
  Alcotest.(check bool) "boot traced" true (has "booted");
  Alcotest.(check bool) "CLONE traced" true (has "CLONE");
  Alcotest.(check bool) "COMMIT traced" true (has "COMMIT");
  Alcotest.(check bool) "suspend traced" true (has "suspended");
  Alcotest.(check bool) "proxy traced" true (has "checkpoint request served");
  Alcotest.(check bool) "kill traced" true (has "fail-stop");
  (* Same seed, same trace: event-for-event determinism. *)
  let (), lines' = Trace.capture scenario in
  Alcotest.(check (list string)) "trace deterministic" lines lines'

let test_simulation_deterministic () =
  let once () =
    let cluster = build () in
    Cluster.run cluster (fun () ->
        let inst = fresh_instance cluster Approach.Blobcr ~node_index:0 ~id:"vm0" in
        let bench = Synthetic.start inst ~buffer_bytes:(2 * mib) in
        Synthetic.dump_app bench;
        let t0 = Cluster.now cluster in
        ignore (Approach.request_checkpoint cluster inst);
        Cluster.now cluster -. t0)
  in
  let a = once () and b = once () in
  Alcotest.(check (float 0.0)) "identical checkpoint duration" a b

let kind_cases name f =
  List.map
    (fun kind ->
      Alcotest.test_case (Fmt.str "%s (%s)" name (Approach.kind_name kind)) `Quick (f kind))
    all_kinds

let () =
  Alcotest.run "blobcr"
    [
      ( "guest_fs",
        [
          Alcotest.test_case "basics" `Quick test_guest_fs_basics;
          Alcotest.test_case "persistence via mount" `Quick test_guest_fs_persistence_via_mount;
          Alcotest.test_case "unsynced writes stay in cache" `Quick
            test_guest_fs_unsynced_writes_not_on_device;
          Alcotest.test_case "delete and reuse" `Quick test_guest_fs_delete_and_reuse;
          Alcotest.test_case "fs full" `Quick test_guest_fs_full;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) [ prop_guest_fs_matches_model ] );
      ("deploy", kind_cases "deploy and boot" test_deploy_and_boot);
      ( "checkpoint-restart",
        kind_cases "app-level roundtrip" test_checkpoint_restart_roundtrip
        @ kind_cases "blcr roundtrip" test_blcr_checkpoint_restart
        @ kind_cases "filesystem rollback" test_filesystem_rollback );
      ( "snapshots",
        [
          Alcotest.test_case "blobcr snapshots incremental" `Quick
            test_blobcr_snapshot_is_incremental;
          Alcotest.test_case "qcow2 disk snapshots grow" `Quick test_qcow2_disk_snapshots_grow;
          Alcotest.test_case "full snapshot carries RAM" `Quick
            test_full_snapshot_carries_ram_overhead;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "rejects foreign VM" `Quick test_proxy_rejects_foreign_vm;
          Alcotest.test_case "resumes VM on failure" `Quick
            test_proxy_resumes_vm_on_snapshot_failure;
          Alcotest.test_case "suspend blocks guest" `Quick test_vm_suspend_blocks_guest;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "global checkpoint/restart" `Quick
            test_global_checkpoint_restart_many;
          Alcotest.test_case "cm1 survives restart" `Quick test_cm1_iterates_and_survives_restart;
          Alcotest.test_case "cm1 blcr dump sizes" `Quick test_cm1_blcr_dump_sizes;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims obsolete snapshots" `Quick
            test_gc_reclaims_obsolete_snapshots;
          Alcotest.test_case "keeps shared base chunks" `Quick test_gc_keeps_shared_base_chunks;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "repeatable timings" `Quick test_simulation_deterministic;
          Alcotest.test_case "trace captures lifecycle" `Quick test_trace_captures_lifecycle;
        ] );
    ]
