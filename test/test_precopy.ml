(* Tests for live checkpointing: the mirror's frozen epochs (freeze /
   commit_frozen / abort_frozen), copy-on-write preservation of frozen
   bytes under racing guest writes, digest-cache coherence on both forks
   of the clone, rollback when a crash lands mid-commit (in the
   background or under stop-the-world suspend), the
   full live checkpoint/restart round trip, and the suspend-window
   shrinkage the precopy experiment exists to demonstrate. *)

open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk

(* ------------------------------------------------------------------ *)
(* Mirror-level rig: a small BlobSeer deployment and a 4-chunk mirror. *)

type rig = {
  engine : Engine.t;
  service : Client.t;
  client_host : Net.host;
  nodes : (Net.host * Disk.t) array;
}

let make_rig ?(providers = 4) ?(replication = 1) ?(stripe = 256) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let md_hosts = [ Net.add_host net ~name:"meta0" ] in
  let data =
    Array.init providers (fun i ->
        let host = Net.add_host net ~name:(Fmt.str "node%d" i) in
        let disk = Disk.create engine ~name:(Fmt.str "disk%d" i) () in
        (host, disk))
  in
  let client_host = Net.add_host net ~name:"client" in
  let params = { Types.default_params with stripe_size = stripe; replication } in
  let service =
    Client.deploy engine net ~params ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts
      ~data_providers:(Array.to_list data)
  in
  { engine; service; client_host; nodes = data }

let run_rig rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine ~name:"test-main" (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

let setup_mirror rig ~content ~name =
  let base =
    Client.create_blob rig.service ~from:rig.client_host ~capacity:(String.length content)
  in
  let v = Client.write base ~from:rig.client_host ~offset:0 (Payload.of_string content) in
  let host, disk = rig.nodes.(0) in
  Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name ()

let read_ckpt rig m ~version ~offset ~len =
  let ckpt = Option.get (Mirror.checkpoint_image m) in
  Payload.to_string (Client.read ckpt ~from:rig.client_host ~version ~offset ~len)

(* The teardown audit's findings for the mirror named [name], run now. *)
let audit_invariants engine name =
  List.filter_map
    (fun (x : Engine.violation) -> if x.subject = "mirror:" ^ name then Some x.invariant else None)
    (Engine.audit engine)

(* ------------------------------------------------------------------ *)
(* Frozen epochs under racing guest writes *)

let test_freeze_cow_preserves_frozen_bytes () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let m = setup_mirror rig ~content:(String.make 1024 'Z') ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 512 'A'));
      Alcotest.(check (list int)) "two dirty chunks" [ 0; 1 ] (Mirror.snapshot m).Mirror.dirty;
      (* Freeze: the dirty set becomes the frozen epoch, the live set
         restarts empty — this is the CLONE boundary. *)
      Mirror.freeze m;
      Alcotest.(check bool) "frozen active" true (Mirror.frozen_active m);
      Alcotest.(check (list int)) "epoch captured" [ 0; 1 ]
        (Mirror.snapshot m).Mirror.frozen_pending;
      Alcotest.(check (list int)) "live set restarts empty" [] (Mirror.snapshot m).Mirror.dirty;
      (* The guest races the background ship: chunk 0 is overwritten (its
         frozen bytes must be preserved copy-on-write), chunk 2 is new
         post-clone damage. *)
      Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'X'));
      Mirror.write m ~offset:512 (Payload.of_string (String.make 256 'C'));
      Alcotest.(check (list int)) "only chunk 0 copied" [ 0 ]
        (Mirror.snapshot m).Mirror.frozen_copied;
      Alcotest.(check int) "one COW chunk charged" 1 (Mirror.snapshot m).Mirror.cow_chunks;
      Alcotest.(check int) "COW bytes charged" 256 (Mirror.cow_bytes m);
      Alcotest.(check (list int)) "post-clone writes tracked" [ 0; 2 ]
        (Mirror.snapshot m).Mirror.dirty;
      (* Mid-epoch, the only violation is the liveness marker itself (an
         epoch still active *at teardown* is a leak); the subset and
         coherence checks over both forks must pass. *)
      Alcotest.(check (list string)) "frozen epoch audits clean" [ "frozen-resolved" ]
        (audit_invariants rig.engine "m");
      (* The background commit publishes the *frozen* content — the bytes
         at the clone point, not what the guest wrote since. *)
      let v1 = Mirror.commit_frozen m in
      Alcotest.(check bool) "epoch resolved" false (Mirror.frozen_active m);
      Alcotest.(check string) "snapshot has clone-point bytes"
        (String.make 512 'A' ^ String.make 512 'Z')
        (read_ckpt rig m ~version:v1 ~offset:0 ~len:1024);
      Alcotest.(check (list int)) "dirty set exact across the boundary" [ 0; 2 ]
        (Mirror.snapshot m).Mirror.dirty;
      (* The next (classic) commit ships the guest's current bytes. *)
      let v2 = Mirror.commit m in
      Alcotest.(check string) "next snapshot has live bytes"
        (String.make 256 'X' ^ String.make 256 'A' ^ String.make 256 'C'
       ^ String.make 256 'Z')
        (read_ckpt rig m ~version:v2 ~offset:0 ~len:1024);
      Alcotest.(check (list string)) "mirror audits clean" [] (audit_invariants rig.engine "m"))

let test_frozen_digest_cache_coherent_on_both_forks () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let m = setup_mirror rig ~content:(String.make 1024 'Z') ~name:"m" in
      (* Full-chunk writes seed the live digest cache inline. *)
      Mirror.write m ~offset:0 (Payload.of_string (String.make 512 'B'));
      let frozen_digest = List.assoc 0 (Mirror.snapshot m).Mirror.digests in
      Mirror.freeze m;
      (* Freeze captured the digests; a partial overwrite then invalidates
         the *live* entry and preserves the frozen bytes copy-on-write.
         The frozen fork's digest must keep describing the frozen bytes. *)
      Mirror.write m ~offset:0 (Payload.of_string (String.make 32 '!'));
      Alcotest.(check bool) "live entry invalidated" false
        (List.mem_assoc 0 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check int64) "frozen digest carried from freeze time" frozen_digest
        (List.assoc 0 (Mirror.snapshot m).Mirror.frozen_digests);
      Alcotest.(check (list string)) "both forks audit clean" [ "frozen-resolved" ]
        (audit_invariants rig.engine "m");
      ignore (Mirror.commit_frozen m);
      (* The commit must not re-seed the live cache for the guest-overwritten
         chunk: the descriptor it minted describes the frozen bytes, while
         the live bytes have moved on. Untouched chunk 1 may re-seed. *)
      Alcotest.(check bool) "no stale re-seed for the copied chunk" false
        (List.mem_assoc 0 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check bool) "untouched frozen chunk re-seeded" true
        (List.mem_assoc 1 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check (list string)) "live fork audits clean after commit" []
        (audit_invariants rig.engine "m");
      ignore (Mirror.commit m);
      Alcotest.(check (list string)) "mirror audits clean" [] (audit_invariants rig.engine "m"))

let test_abort_frozen_folds_back () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let m = setup_mirror rig ~content:(String.make 1024 'Z') ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 512 'A'));
      let local_before = (Mirror.snapshot m).Mirror.local_bytes in
      Mirror.freeze m;
      Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'X'));
      Mirror.write m ~offset:512 (Payload.of_string (String.make 256 'C'));
      let with_frozen = (Mirror.snapshot m).Mirror.local_bytes in
      (* Abort: the snapshot will never complete — frozen chunks fold back
         into the dirty set, the preserved copies and their disk reservation
         are dropped, and the next commit ships the *current* bytes. *)
      Mirror.abort_frozen m;
      Alcotest.(check bool) "epoch resolved" false (Mirror.frozen_active m);
      Alcotest.(check (list int)) "union of frozen and post-clone damage" [ 0; 1; 2 ]
        (Mirror.snapshot m).Mirror.dirty;
      (* Only the 256-byte COW copy is released; the post-clone write to
         chunk 2 legitimately stays cached locally. *)
      Alcotest.(check int) "diff-log reservation released" (with_frozen - 256)
        (Mirror.snapshot m).Mirror.local_bytes;
      Alcotest.(check int) "only the new chunk beyond the pre-freeze set"
        (local_before + 256) (Mirror.snapshot m).Mirror.local_bytes;
      Alcotest.(check (list string)) "mirror audits clean" [] (audit_invariants rig.engine "m");
      let v = Mirror.commit m in
      Alcotest.(check string) "retry ships current bytes"
        (String.make 256 'X' ^ String.make 256 'A' ^ String.make 256 'C'
       ^ String.make 256 'Z')
        (read_ckpt rig m ~version:v ~offset:0 ~len:1024);
      (* Aborting with no epoch active is a no-op. *)
      Mirror.abort_frozen m)

let test_frozen_epoch_guards () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let m = setup_mirror rig ~content:(String.make 1024 'Z') ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'A'));
      Mirror.freeze m;
      (* A stop-the-world commit is a freeze + commit_frozen, so it is
         refused by the freeze — without aborting the epoch in flight. *)
      Alcotest.check_raises "classic commit refused while frozen"
        (Invalid_argument "Mirror.freeze: a frozen epoch is already active") (fun () ->
          ignore (Mirror.commit m));
      Alcotest.(check (list int)) "epoch in flight untouched" [ 0 ]
        (Mirror.snapshot m).Mirror.frozen_pending;
      Alcotest.check_raises "double freeze refused"
        (Invalid_argument "Mirror.freeze: a frozen epoch is already active") (fun () ->
          Mirror.freeze m);
      ignore (Mirror.commit_frozen m))

let test_failed_commit_rolls_back () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let m = setup_mirror rig ~content:(String.make 1024 'Z') ~name:"m" in
      (* Clone up front so the armed crash lands on the publish. *)
      Mirror.clone m;
      Mirror.write m ~offset:0 (Payload.of_string (String.make 512 'A'));
      Mirror.write m ~offset:768 (Payload.of_string (String.make 128 'D'));
      let dirty = (Mirror.snapshot m).Mirror.dirty in
      let vmgr = Client.version_manager rig.service in
      Version_manager.arm_crash vmgr Version_manager.Mid_apply;
      (match Mirror.commit m with
      | _ -> Alcotest.fail "commit should have failed"
      | exception Types.Service_crashed _ -> ());
      (* The commit's abort handler folds the frozen epoch back: nothing
         leaks, and the dirty set is exactly what it was before. *)
      Alcotest.(check bool) "no leaked frozen epoch" false (Mirror.frozen_active m);
      Alcotest.(check (list int)) "dirty set as it was" dirty (Mirror.snapshot m).Mirror.dirty;
      Alcotest.(check (list string)) "mirror audits clean" [] (audit_invariants rig.engine "m");
      Version_manager.restart vmgr;
      let v = Mirror.commit m in
      Alcotest.(check string) "retry publishes the same bytes"
        (String.make 512 'A' ^ String.make 256 'Z' ^ String.make 128 'D' ^ String.make 128 'Z')
        (read_ckpt rig m ~version:v ~offset:0 ~len:1024);
      Alcotest.(check (list int)) "dirty set drained" [] (Mirror.snapshot m).Mirror.dirty)

(* ------------------------------------------------------------------ *)
(* Stack-level: live checkpoints through Approach / Ckpt_proxy *)

open Blobcr

let live ?(rounds = 2) ?(background = true) () = Approach.Live { rounds; background }

let test_live_checkpoint_restart_roundtrip () =
  let cluster = Cluster.build ~seed:7 Calibration.quick_test in
  let ok =
    Cluster.run cluster (fun () ->
        let inst =
          Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"vm0"
        in
        let bench = Workloads.Synthetic.start inst ~buffer_bytes:(4 * Size.mib) in
        let before = Payload.digest (Workloads.Synthetic.buffer bench) in
        Workloads.Synthetic.dump_app bench;
        let snapshot = Approach.request_checkpoint ~mode:(live ()) cluster inst in
        Alcotest.(check bool) "vm running after live checkpoint" true
          (Vmsim.Vm.state inst.Approach.vm = Vmsim.Vm.Running);
        Approach.kill inst;
        let inst' =
          Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0r" snapshot
        in
        let restored = Workloads.Synthetic.restore_app inst' in
        Payload.digest (Workloads.Synthetic.buffer restored) = before)
  in
  Alcotest.(check bool) "state restored from live snapshot" true ok

(* A crash armed mid-publish must roll the epoch back whether the final
   delta ships in the background (after the resume) or under suspend
   (stop-the-world): both go through the same frozen-epoch path. *)
let crash_mid_commit_rolls_back ~mode () =
  let cluster = Cluster.build ~seed:7 Calibration.quick_test in
  Cluster.run cluster (fun () ->
      let inst =
        Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"vm0"
      in
      let mirror =
        match inst.Approach.stack with
        | Approach.Mirror_stack m -> m
        | Approach.Qcow2_stack _ -> Alcotest.fail "expected a mirror stack"
      in
      let bench = Workloads.Synthetic.start inst ~buffer_bytes:(2 * Size.mib) in
      Workloads.Synthetic.dump_app bench;
      let good = Approach.request_checkpoint ~mode:(live ()) cluster inst in
      (* Next epoch: dirty new state, then arm the version manager to crash
         mid-apply — with rounds = 0 the first publish is the final delta
         itself, so the crash lands while it ships. *)
      Workloads.Synthetic.refill bench;
      Workloads.Synthetic.dump_app bench;
      Version_manager.arm_crash (Client.version_manager cluster.Cluster.service)
        Version_manager.Mid_apply;
      let failed =
        try
          ignore (Approach.request_checkpoint ~mode cluster inst);
          None
        with e -> Some e
      in
      (match failed with
      | None -> Alcotest.fail "checkpoint should have failed"
      | Some e ->
          Alcotest.(check string) "typed service-crash error" "service-crash"
            (Fmt.str "%a" Protocol.pp_error_class (Protocol.error_class e)));
      (* The abort path must leave the mirror retryable: no leaked frozen
         epoch, the delta folded back into the dirty set, the VM running. *)
      Alcotest.(check bool) "no leaked frozen epoch" false (Mirror.frozen_active mirror);
      Alcotest.(check bool) "delta folded back" true
        ((Mirror.snapshot mirror).Mirror.dirty <> []);
      Alcotest.(check bool) "vm running after failed commit" true
        (Vmsim.Vm.state inst.Approach.vm = Vmsim.Vm.Running);
      Alcotest.(check (list string)) "mirror audits clean" [] (audit_invariants cluster.Cluster.engine "vm0.mirror");
      (* Heal the service; the previous snapshot set stays authoritative —
         a restart from it boots while the failed epoch is still unshipped. *)
      Version_manager.restart (Client.version_manager cluster.Cluster.service);
      let rb =
        Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0rb" good
      in
      Alcotest.(check bool) "last committed snapshot restartable" true
        (Vmsim.Vm.state rb.Approach.vm = Vmsim.Vm.Running);
      Approach.kill rb;
      (* Retry: the same epoch ships cleanly. *)
      let retried = Approach.request_checkpoint ~mode:(live ()) cluster inst in
      Approach.kill inst;
      let inst' =
        Approach.restart cluster ~node:(Cluster.node cluster 1) ~id:"vm0r" retried
      in
      let restored = Workloads.Synthetic.restore_app inst' in
      Alcotest.(check int64) "retried snapshot restores the new state"
        (Payload.digest (Workloads.Synthetic.buffer bench))
        (Payload.digest (Workloads.Synthetic.buffer restored)))

let test_crash_during_background_commit_rolls_back () =
  crash_mid_commit_rolls_back ~mode:(live ~rounds:0 ()) ();
  crash_mid_commit_rolls_back ~mode:Approach.stop_the_world ()

(* ------------------------------------------------------------------ *)
(* The acceptance claim: pre-copy + background commit shrink the
   application-perceived suspend window; live modes pay for it in shipped
   bytes (pre-copy overship) and copy-on-write traffic. *)

let test_precopy_shrinks_suspend_window () =
  let scale = Experiments.Scale.quick in
  let point mode rounds =
    Experiments.Precopy.run_point scale ~interval:2.0 ~dirty_mbps:2.0 ~rounds ~mode ()
  in
  let stw = point "stw" 0 in
  let sync = point "live-sync" 2 in
  let bg = point "live-bg" 2 in
  Alcotest.(check bool)
    (Fmt.str "final-delta suspend beats stop-the-world (%.3fs < %.3fs)"
       sync.Experiments.Precopy.suspend_max stw.Experiments.Precopy.suspend_max)
    true
    (sync.Experiments.Precopy.suspend_max < stw.Experiments.Precopy.suspend_max);
  Alcotest.(check bool)
    (Fmt.str "background commit shrinks it further (%.3fs < %.3fs)"
       bg.Experiments.Precopy.suspend_max sync.Experiments.Precopy.suspend_max)
    true
    (bg.Experiments.Precopy.suspend_max <= sync.Experiments.Precopy.suspend_max);
  Alcotest.(check bool) "pre-copy overships" true
    (bg.Experiments.Precopy.shipped_bytes >= stw.Experiments.Precopy.shipped_bytes);
  Alcotest.(check bool) "background commit pays COW traffic" true
    (bg.Experiments.Precopy.cow_bytes > 0);
  Alcotest.(check bool) "writer made progress" true
    (bg.Experiments.Precopy.achieved_mbps > 0.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "precopy"
    [
      ( "frozen epochs",
        [
          Alcotest.test_case "COW preserves frozen bytes under racing writes" `Quick
            test_freeze_cow_preserves_frozen_bytes;
          Alcotest.test_case "digest cache coherent on both forks" `Quick
            test_frozen_digest_cache_coherent_on_both_forks;
          Alcotest.test_case "abort folds the epoch back" `Quick test_abort_frozen_folds_back;
          Alcotest.test_case "commit/freeze guards" `Quick test_frozen_epoch_guards;
          Alcotest.test_case "failed commit rolls back" `Quick test_failed_commit_rolls_back;
        ] );
      ( "live checkpoint",
        [
          Alcotest.test_case "checkpoint/restart round trip" `Quick
            test_live_checkpoint_restart_roundtrip;
          Alcotest.test_case "crash mid-background-commit rolls back" `Quick
            test_crash_during_background_commit_rolls_back;
        ] );
      ( "suspend window",
        [
          Alcotest.test_case "pre-copy + background commit shrink it" `Quick
            test_precopy_shrinks_suspend_window;
        ] );
    ]
