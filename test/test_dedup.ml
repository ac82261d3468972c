(* Tests for content-addressed chunk deduplication: index hit/miss
   behaviour, refcounted GC, scrub repair of shared chunks, concurrent
   in-flight claims, clean-rewrite suppression on the mirror commit path,
   the dedup refcount invariant audit, and determinism of the dedup
   benchmark experiment. *)

open Simcore
open Netsim
open Storage
open Blobseer

type rig = {
  engine : Engine.t;
  service : Client.t;
  client_host : Net.host;
}

let make_rig ?(providers = 4) ?(replication = 1) ?(stripe = 100) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let md_hosts = List.init 2 (fun i -> Net.add_host net ~name:(Fmt.str "meta%d" i)) in
  let data =
    List.init providers (fun i ->
        let host = Net.add_host net ~name:(Fmt.str "node%d" i) in
        let disk = Disk.create engine ~name:(Fmt.str "disk%d" i) () in
        (host, disk))
  in
  let client_host = Net.add_host net ~name:"client" in
  let params = { Types.default_params with stripe_size = stripe; replication } in
  let service =
    Client.deploy engine net ~params ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts ~data_providers:data
  in
  { engine; service; client_host }

let run_rig rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine ~name:"test-main" (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

let payload_str = Payload.of_string

(* Three 100-byte chunks with pairwise distinct content. *)
let three_chunks tag =
  String.concat "" (List.map (fun c -> String.make 100 c) [ tag; Char.chr (Char.code tag + 1); Char.chr (Char.code tag + 2) ])

let first_desc service blob =
  let tree =
    Client.tree blob
      ~version:(Version_manager.peek_latest (Client.version_manager service) (Client.blob_id blob))
  in
  match Segment_tree.get tree 0 with
  | Some d -> d
  | None -> Alcotest.fail "blob has no chunk 0 descriptor"

(* ------------------------------------------------------------------ *)

let test_dedup_hit_ships_nothing () =
  let rig = make_rig () in
  let from = rig.client_host in
  let content = three_chunks 'a' in
  run_rig rig (fun () ->
      let a = Client.create_blob rig.service ~from ~capacity:300 in
      let va = Client.write a ~from ~offset:0 (payload_str content) in
      let repo = Client.repository_bytes rig.service in
      (* Identical content into a different blob: pure index hits. *)
      let b = Client.create_blob rig.service ~from ~capacity:300 in
      let vb = Client.write b ~from ~offset:0 (payload_str content) in
      Alcotest.(check int) "repository unchanged" repo (Client.repository_bytes rig.service);
      let s = Client.dedup_stats rig.service in
      Alcotest.(check int) "three hits" 3 s.Dedup_index.hits;
      Alcotest.(check int) "three misses (first write)" 3 s.Dedup_index.misses;
      Alcotest.(check int) "bytes saved" 300 s.Dedup_index.bytes_saved;
      (* Both descriptors reference the same physical replicas but keep
         distinct identities. *)
      let da = first_desc rig.service a and db = first_desc rig.service b in
      Alcotest.(check bool) "replicas shared" true (da.Types.replicas = db.Types.replicas);
      Alcotest.(check bool) "serials distinct" true (da.Types.serial <> db.Types.serial);
      List.iter
        (fun (blob, v) ->
          Alcotest.(check string) "readback identical" content
            (Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:300)))
        [ (a, va); (b, vb) ])

let test_dedup_miss_grows_repository () =
  let rig = make_rig () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let a = Client.create_blob rig.service ~from ~capacity:300 in
      ignore (Client.write a ~from ~offset:0 (payload_str (three_chunks 'a')));
      let repo = Client.repository_bytes rig.service in
      let b = Client.create_blob rig.service ~from ~capacity:300 in
      ignore (Client.write b ~from ~offset:0 (payload_str (three_chunks 'x')));
      Alcotest.(check int) "repository grew by three chunks" (repo + 300)
        (Client.repository_bytes rig.service);
      Alcotest.(check int) "no hits" 0 (Client.dedup_stats rig.service).Dedup_index.hits)

let test_dedup_disabled_ships_everything () =
  (* Same scenario as the hit test, but the deployment opts out of the
     index: duplicates are stored twice and no index traffic happens. *)
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let md_hosts = [ Net.add_host net ~name:"meta0" ] in
  let data =
    List.init 3 (fun i ->
        (Net.add_host net ~name:(Fmt.str "node%d" i), Disk.create engine ()))
  in
  let client_host = Net.add_host net ~name:"client" in
  let params = { Types.default_params with stripe_size = 100; replication = 1; dedup = false } in
  let service =
    Client.deploy engine net ~params ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts ~data_providers:data
  in
  let rig2 = { engine; service; client_host } in
  run_rig rig2 (fun () ->
      let from = client_host in
      let content = three_chunks 'a' in
      let a = Client.create_blob service ~from ~capacity:300 in
      ignore (Client.write a ~from ~offset:0 (payload_str content));
      let repo = Client.repository_bytes service in
      let b = Client.create_blob service ~from ~capacity:300 in
      let vb = Client.write b ~from ~offset:0 (payload_str content) in
      Alcotest.(check int) "duplicate stored twice" (repo + 300) (Client.repository_bytes service);
      Alcotest.(check int) "no index traffic" 0
        ((Client.dedup_stats service).Dedup_index.hits
        + (Client.dedup_stats service).Dedup_index.misses);
      Alcotest.(check string) "readback fine" content
        (Payload.to_string (Client.read b ~from ~version:vb ~offset:0 ~len:300)))

(* Retention down to each blob's newest version through a compactor. The
   second pass runs the deferred sweep of the chunks the first one
   queued. *)
let compact_to_latest rig =
  let c =
    Compactor.create rig.service ~home:rig.client_host
      ~config:{ Compactor.policy = Retention.Keep_last 1 }
  in
  Compactor.scan c;
  Compactor.scan c;
  Compactor.stats c

let test_refcounted_gc_keeps_shared_chunks () =
  let rig = make_rig () in
  let from = rig.client_host in
  let shared = three_chunks 'a' in
  run_rig rig (fun () ->
      let a = Client.create_blob rig.service ~from ~capacity:300 in
      ignore (Client.write a ~from ~offset:0 (payload_str shared));
      let b = Client.create_blob rig.service ~from ~capacity:300 in
      let vb = Client.write b ~from ~offset:0 (payload_str shared) in
      (* Overwrite [a]: its only reference to the shared chunks dies with
         retention, but [b] still holds them. *)
      ignore (Client.write a ~from ~offset:0 (payload_str (three_chunks 'p')));
      let r1 = compact_to_latest rig in
      Alcotest.(check int) "shared chunks survive b's reference" 0 r1.Compactor.chunks_reclaimed;
      Alcotest.(check string) "b reads the shared content" shared
        (Payload.to_string (Client.read b ~from ~version:vb ~offset:0 ~len:300));
      (* Overwrite [b] too: now nothing references the shared chunks. *)
      ignore (Client.write b ~from ~offset:0 (payload_str (three_chunks 's')));
      let repo = Client.repository_bytes rig.service in
      let entries () = (Client.dedup_stats rig.service).Dedup_index.entries in
      let entries_before = entries () in
      let r2 = compact_to_latest rig in
      Alcotest.(check int) "shared chunks reclaimed" 3 r2.Compactor.chunks_reclaimed;
      Alcotest.(check int) "index entries dropped with them" 3 (entries_before - entries ());
      Alcotest.(check int) "bytes reclaimed" (repo - 300) (Client.repository_bytes rig.service))

let test_scrub_repair_heals_every_referencer () =
  let rig = make_rig ~providers:3 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let content = String.make 100 'd' in
  run_rig rig (fun () ->
      let a = Client.create_blob rig.service ~from ~capacity:100 in
      let va = Client.write a ~from ~offset:0 (payload_str content) in
      let b = Client.create_blob rig.service ~from ~capacity:100 in
      let vb = Client.write b ~from ~offset:0 (payload_str content) in
      let desc = first_desc rig.service a in
      let r = List.hd desc.Types.replicas in
      ignore
        (Data_provider.corrupt_chunk
           (Client.data_provider rig.service r.Types.provider)
           ~salt:5 r.Types.chunk);
      let scrub = Scrubber.create rig.service ~home:rig.client_host () in
      Scrubber.scan scrub;
      let stats = Scrubber.stats scrub in
      (* One physical chunk, referenced from two trees: repaired once. *)
      Alcotest.(check int) "one repair" 1 stats.Scrubber.repairs;
      List.iter
        (fun (blob, v) ->
          Alcotest.(check string) "referencing version heals" content
            (Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:100)))
        [ (a, va); (b, vb) ];
      (* The index was repointed at the repaired replica set: a third
         write of the same content still hits and ships nothing. *)
      let repo = Client.repository_bytes rig.service in
      let hits = (Client.dedup_stats rig.service).Dedup_index.hits in
      let c = Client.create_blob rig.service ~from ~capacity:100 in
      ignore (Client.write c ~from ~offset:0 (payload_str content));
      Alcotest.(check int) "repaired entry still hits" (hits + 1)
        (Client.dedup_stats rig.service).Dedup_index.hits;
      Alcotest.(check int) "nothing shipped" repo (Client.repository_bytes rig.service))

let test_concurrent_identical_writes_store_once () =
  let rig = make_rig () in
  let from = rig.client_host in
  let content = String.make 100 'c' in
  run_rig rig (fun () ->
      let a = Client.create_blob rig.service ~from ~capacity:100 in
      let b = Client.create_blob rig.service ~from ~capacity:100 in
      let repo = Client.repository_bytes rig.service in
      (* Two fibers race identical content: the in-flight claim makes the
         second wait for the first writer's outcome instead of storing a
         duplicate copy. *)
      Engine.all rig.engine ~name:"racers"
        [
          (fun () -> ignore (Client.write a ~from ~offset:0 (payload_str content)));
          (fun () -> ignore (Client.write b ~from ~offset:0 (payload_str content)));
        ];
      Alcotest.(check int) "one physical copy" (repo + 100) (Client.repository_bytes rig.service);
      let s = Client.dedup_stats rig.service in
      Alcotest.(check int) "one miss" 1 s.Dedup_index.misses;
      Alcotest.(check int) "one hit" 1 s.Dedup_index.hits;
      List.iter
        (fun blob ->
          let v =
            Version_manager.peek_latest (Client.version_manager rig.service)
              (Client.blob_id blob)
          in
          Alcotest.(check string) "readback" content
            (Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:100)))
        [ a; b ])

let test_clean_rewrite_suppression () =
  let rig = make_rig () in
  let from = rig.client_host in
  let content = three_chunks 'a' in
  run_rig rig (fun () ->
      let blob = Client.create_blob rig.service ~from ~capacity:300 in
      ignore (Client.write blob ~from ~offset:0 (payload_str content));
      let repo = Client.repository_bytes rig.service in
      let job i = (i, fun () -> payload_str (String.sub content (i * 100) 100)) in
      let v2, stats =
        Client.write_chunks blob ~from ~suppress_clean:true [ job 0; job 1; job 2 ]
      in
      Alcotest.(check int) "all chunks suppressed" 3 stats.Client.chunks_suppressed;
      Alcotest.(check int) "no bytes shipped" 0 stats.Client.bytes_shipped;
      Alcotest.(check int) "no bytes deduped" 0 stats.Client.bytes_deduped;
      Alcotest.(check int) "repository unchanged" repo (Client.repository_bytes rig.service);
      Alcotest.(check string) "new version reads the same bytes" content
        (Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:300)))

let test_mirror_commit_dedups_across_instances () =
  let open Blobcr in
  let cluster = Cluster.build ~seed:7 Calibration.quick_test in
  Cluster.run cluster (fun () ->
      let stripe = Client.stripe_size cluster.Cluster.base_blob in
      let mirror i =
        let node = Cluster.node cluster i in
        Vdisk.Mirror.create cluster.Cluster.engine ~host:node.Cluster.host
          ~local_disk:node.Cluster.disk ~base:cluster.Cluster.base_blob
          ~base_version:cluster.Cluster.base_version
          ~name:(Fmt.str "m%d" i) ()
      in
      let m1 = mirror 0 and m2 = mirror 1 in
      List.iter
        (fun m ->
          for c = 0 to 1 do
            Vdisk.Mirror.write m ~offset:(c * stripe)
              (Payload.pattern ~seed:(Int64.of_int (c + 77)) stripe)
          done)
        [ m1; m2 ];
      ignore (Vdisk.Mirror.commit m1);
      let s1 = Vdisk.Mirror.last_commit_stats m1 in
      Alcotest.(check int) "first committer ships both chunks" (2 * stripe)
        s1.Client.bytes_shipped;
      ignore (Vdisk.Mirror.commit m2);
      let s2 = Vdisk.Mirror.last_commit_stats m2 in
      Alcotest.(check int) "second committer ships nothing" 0 s2.Client.bytes_shipped;
      Alcotest.(check int) "both chunks dedup'd" 2 s2.Client.chunks_deduped;
      List.iter
        (fun m ->
          let image = Option.get (Vdisk.Mirror.checkpoint_image m) in
          let v = Client.latest_version image ~from:cluster.Cluster.supervisor_host in
          let back =
            Client.read image ~from:cluster.Cluster.supervisor_host ~version:v ~offset:0
              ~len:stripe
          in
          Alcotest.(check bool) "committed image reads the written pattern" true
            (Payload.equal back (Payload.pattern ~seed:77L stripe)))
        [ m1; m2 ])

(* Seeding refcount corruption by hand must not also trip the teardown
   audit. *)
let without_teardown_audits f =
  let was = Engine.audits_enabled () in
  Engine.set_audits_enabled false;
  Fun.protect ~finally:(fun () -> Engine.set_audits_enabled was) f

let test_refcount_audit_catches_drift () =
  without_teardown_audits @@ fun () ->
  let rig = make_rig () in
  let from = rig.client_host in
  let clean, drifted =
    run_rig rig (fun () ->
        let a = Client.create_blob rig.service ~from ~capacity:300 in
        ignore (Client.write a ~from ~offset:0 (payload_str (three_chunks 'a')));
        let b = Client.create_blob rig.service ~from ~capacity:300 in
        ignore (Client.write b ~from ~offset:0 (payload_str (three_chunks 'a')));
        let deployment_audit () =
          List.filter
            (fun (v : Engine.violation) -> v.subject = "blobseer")
            (Engine.audit rig.engine)
        in
        let clean = deployment_audit () in
        let digest = (first_desc rig.service a).Types.digest in
        Dedup_index.unsafe_set_refs
          (Provider_manager.dedup_index (Client.provider_manager rig.service))
          ~digest 99;
        (clean, deployment_audit ()))
  in
  Alcotest.(check int) "shared-content deployment audits clean" 0 (List.length clean);
  Alcotest.(check bool) "refcount drift caught" true
    (List.exists (fun v -> v.Engine.invariant = "dedup-refcount") drifted)

let test_dedup_experiment_deterministic () =
  (* Engine seed 13 under fifo, run twice: traces and tables must match. *)
  match Analysis.Schedule_fuzz.find_scenario "exp:dedup" with
  | None -> Alcotest.fail "dedup experiment not registered"
  | Some scenario ->
      let _, findings = Analysis.Schedule_fuzz.replay ~seed:13000 scenario in
      Alcotest.(check (list string))
        "dedup quick replays clean" []
        (List.map (Fmt.str "%a" Analysis.Schedule_fuzz.pp_finding) findings)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dedup"
    [
      ( "index",
        [
          Alcotest.test_case "duplicate write ships nothing" `Quick test_dedup_hit_ships_nothing;
          Alcotest.test_case "unique write grows the repository" `Quick
            test_dedup_miss_grows_repository;
          Alcotest.test_case "dedup disabled stores duplicates" `Quick
            test_dedup_disabled_ships_everything;
          Alcotest.test_case "concurrent identical writes store once" `Quick
            test_concurrent_identical_writes_store_once;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "refcounted GC keeps shared chunks" `Quick
            test_refcounted_gc_keeps_shared_chunks;
          Alcotest.test_case "scrub repair heals every referencer" `Quick
            test_scrub_repair_heals_every_referencer;
          Alcotest.test_case "refcount drift caught by audit" `Quick
            test_refcount_audit_catches_drift;
        ] );
      ( "commit-path",
        [
          Alcotest.test_case "clean rewrite suppressed end to end" `Quick
            test_clean_rewrite_suppression;
          Alcotest.test_case "mirror commits dedup across instances" `Quick
            test_mirror_commit_dedups_across_instances;
          Alcotest.test_case "dedup experiment replays identically" `Slow
            test_dedup_experiment_deterministic;
        ] );
    ]
