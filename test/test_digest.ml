(* Tests for the dirty-region digest cache and the incremental Merkle
   digests: payload digest memo survival across reassembly, Merkle
   stability and memo reuse across shadow-shared subtrees, digest-cache
   invalidation on partial-chunk COW writes, dirty-set exactness across
   clone/commit/rollback, hint-mismatch detection on the commit path, the
   digest-cache coherence audit, the scrubber's Merkle precheck, and
   determinism of the digest benchmark experiment. *)

open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk

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

let setup_base rig ~content =
  let base =
    Client.create_blob rig.service ~from:rig.client_host ~capacity:(String.length content)
  in
  let v = Client.write base ~from:rig.client_host ~offset:0 (Payload.of_string content) in
  (base, v)

let make_mirror rig ~node ~base ~version ~name =
  let host, disk = rig.nodes.(node) in
  Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:version ~name ()

(* The teardown audits' findings, run now. Test mirrors cache fewer than
   64 digests, so the mirror's digest-cache-coherent check recomputes
   every entry from the chunk's current local bytes. *)
let audit rig = List.map (fun (x : Engine.violation) -> x.invariant) (Engine.audit rig.engine)

(* ------------------------------------------------------------------ *)
(* Payload digest memoization *)

let test_payload_concat_memo_survives () =
  let p = Payload.pattern ~seed:77L 4096 in
  let d = Payload.digest p in
  let before = Payload.hashed_bytes () in
  (* Single-payload concat returns the value unchanged, so the memoized
     digest survives reassembly (Sparse_bytes.read of one whole block on
     the commit path) and costs zero further hash work. *)
  let q = Payload.concat [ Payload.concat [ p ]; Payload.zero 0 ] in
  Alcotest.(check int64) "same digest" d (Payload.digest q);
  Alcotest.(check int) "no re-hash" before (Payload.hashed_bytes ());
  (* A genuine multi-part concat is a new value and pays for its digest. *)
  let r = Payload.concat [ p; Payload.of_string "x" ] in
  Alcotest.(check bool) "different digest" true (Payload.digest r <> d)

(* ------------------------------------------------------------------ *)
(* Incremental Merkle digests over the segment tree *)

let leaf v = Int64.mul (Int64.of_int (v + 1)) 0x9E3779B97F4A7C15L

let test_merkle_shadow_sharing_reuses () =
  let t0 = Segment_tree.create ~chunks:1024 in
  let full = Array.init 1024 (fun i -> Some i) in
  let v1, _ = Segment_tree.set_range t0 ~start:0 full in
  let r1 = Segment_tree.merkle_digest ~digest:leaf v1 in
  let h1, _ = Segment_tree.merkle_counters () in
  (* A one-leaf update shadows O(log n) nodes; everything else is shared
     with v1 and must be served from the in-node memo. *)
  let v2, created = Segment_tree.set_range v1 ~start:517 [| Some (-1) |] in
  let r2 = Segment_tree.merkle_digest ~digest:leaf v2 in
  let h2, reuses = Segment_tree.merkle_counters () in
  Alcotest.(check bool) "root changed" true (r1 <> r2);
  Alcotest.(check bool)
    (Fmt.str "fresh hashes bounded by shadowed path (%d created, %d hashed)" created
       (h2 - h1))
    true
    (h2 - h1 <= created);
  Alcotest.(check bool) "shared subtrees reused" true (reuses > 0);
  (* Re-digesting either version is a pure memo hit on the root. *)
  let h3, _ = Segment_tree.merkle_counters () in
  Alcotest.(check int64) "v1 stable" r1 (Segment_tree.merkle_digest ~digest:leaf v1);
  Alcotest.(check int64) "v2 stable" r2 (Segment_tree.merkle_digest ~digest:leaf v2);
  let h4, _ = Segment_tree.merkle_counters () in
  Alcotest.(check int) "roots memoized" h3 h4

let test_merkle_content_equal_trees_agree () =
  (* Structurally independent trees with equal content hash to the same
     root (the cross-site agreement the replicator audit relies on). *)
  let build () =
    let t, _ =
      Segment_tree.set_range (Segment_tree.create ~chunks:64) ~start:7
        (Array.init 9 (fun i -> Some (i * 3)))
    in
    t
  in
  let memo = Hashtbl.create 16 in
  Alcotest.(check int64) "independent builds agree"
    (Segment_tree.merkle_digest ~digest:leaf (build ()))
    (Segment_tree.merkle_digest_with ~memo ~digest:leaf (build ()))

(* ------------------------------------------------------------------ *)
(* Mirror digest cache *)

let test_partial_write_invalidates_cache () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, v = setup_base rig ~content:(String.make 1024 'Z') in
      let m = make_mirror rig ~node:0 ~base ~version:v ~name:"m" in
      (* Full-chunk write: digest computed inline at write time. *)
      Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'A'));
      Alcotest.(check (list int)) "chunk 0 dirty" [ 0 ] (Mirror.snapshot m).Mirror.dirty;
      Alcotest.(check bool) "chunk 0 cached" true
        (List.mem_assoc 0 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check (list string)) "after full write: audits clean" [] (audit rig);
      (* Partial overwrite: caching the merged digest would cost a
         read-modify-digest, so the entry must be invalidated instead. *)
      Mirror.write m ~offset:64 (Payload.of_string (String.make 32 'B'));
      Alcotest.(check bool) "chunk 0 entry invalidated" false
        (List.mem_assoc 0 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check (list string)) "after partial write: audits clean" [] (audit rig);
      (* Commit re-digests it once and re-seeds the cache from the
         published descriptor; the spliced bytes round-trip. *)
      let version = Mirror.commit m in
      Alcotest.(check bool) "re-seeded after commit" true
        (List.mem_assoc 0 (Mirror.snapshot m).Mirror.digests);
      Alcotest.(check (list string)) "after commit: audits clean" [] (audit rig);
      let ckpt = Option.get (Mirror.checkpoint_image m) in
      Alcotest.(check string) "spliced bytes published"
        (String.make 64 'A' ^ String.make 32 'B' ^ String.make 160 'A')
        (Payload.to_string (Client.read ckpt ~from:rig.client_host ~version ~offset:0 ~len:256)))

let test_clean_rewrite_skips_digest_work () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, v = setup_base rig ~content:(String.make 1024 'Z') in
      let m = make_mirror rig ~node:0 ~base ~version:v ~name:"m" in
      Mirror.write m ~offset:256 (Payload.of_string (String.make 256 'C'));
      ignore (Mirror.commit m);
      let before = Client.digest_stats rig.service in
      (* A full-chunk rewrite of exactly the committed bytes hits the
         carried cache at the device: never dirtied, no commit work. *)
      Mirror.write m ~offset:256 (Payload.of_string (String.make 256 'C'));
      Alcotest.(check (list int)) "stays clean" [] (Mirror.snapshot m).Mirror.dirty;
      let after = Client.digest_stats rig.service in
      Alcotest.(check int) "skip accounted" (before.Client.chunks_skipped + 1)
        after.Client.chunks_skipped;
      Alcotest.(check int) "skipped bytes accounted" (before.Client.bytes_skipped + 256)
        after.Client.bytes_skipped;
      (* The empty commit publishes a version with no digest computed. *)
      ignore (Mirror.commit m);
      let final = Client.digest_stats rig.service in
      Alcotest.(check int) "no digests computed" after.Client.chunks_digested
        final.Client.chunks_digested)

let test_dirty_set_exact_across_clone_rollback () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, v = setup_base rig ~content:(String.make 1024 'Z') in
      let m = make_mirror rig ~node:0 ~base ~version:v ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 300 'D'));
      Alcotest.(check (list int)) "two dirty chunks" [ 0; 1 ] (Mirror.snapshot m).Mirror.dirty;
      (* CLONE materializes the checkpoint image; the dirty set is
         untouched. *)
      Mirror.clone m;
      Alcotest.(check (list int)) "clone preserves dirty set" [ 0; 1 ]
        (Mirror.snapshot m).Mirror.dirty;
      let good = Mirror.commit m in
      Alcotest.(check (list int)) "commit drains dirty set" [] (Mirror.snapshot m).Mirror.dirty;
      Alcotest.(check (list string)) "after commit: audits clean" [] (audit rig);
      (* Post-checkpoint damage, then rollback via a fresh mirror of the
         snapshot: the new instance starts with an empty, exact dirty set
         and a clean cache. *)
      Mirror.write m ~offset:512 (Payload.of_string (String.make 17 '!'));
      Alcotest.(check (list int)) "damage tracked exactly" [ 2 ] (Mirror.snapshot m).Mirror.dirty;
      let ckpt = Option.get (Mirror.checkpoint_image m) in
      let m' = make_mirror rig ~node:1 ~base:ckpt ~version:good ~name:"m-rb" in
      Alcotest.(check (list int)) "rollback starts clean" [] (Mirror.snapshot m').Mirror.dirty;
      Alcotest.(check (list (pair int int64))) "rollback cache empty" []
        (Mirror.snapshot m').Mirror.digests;
      Mirror.write m' ~offset:256 (Payload.of_string (String.make 256 'E'));
      Alcotest.(check (list int)) "exact after rollback" [ 1 ] (Mirror.snapshot m').Mirror.dirty;
      Alcotest.(check (list string)) "after rollback write: audits clean" [] (audit rig))

let test_taint_all_clears_cache () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, v = setup_base rig ~content:(String.make 1024 'Z') in
      let m = make_mirror rig ~node:0 ~base ~version:v ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 1024 'F'));
      ignore (Mirror.commit m);
      Alcotest.(check bool) "cache populated" true ((Mirror.snapshot m).Mirror.digests <> []);
      (* The whole-image ablation baseline must pay the full re-digest and
         re-ship cost: carried digests would suppress everything. *)
      Mirror.taint_all m;
      Alcotest.(check (list (pair int int64))) "cache cleared" []
        (Mirror.snapshot m).Mirror.digests;
      Alcotest.(check int) "all present chunks dirty" 4
        (List.length (Mirror.snapshot m).Mirror.dirty);
      let before = Client.digest_stats rig.service in
      ignore (Mirror.commit m);
      let after = Client.digest_stats rig.service in
      Alcotest.(check int) "every chunk re-digested from bytes"
        (before.Client.chunks_digested + 4) after.Client.chunks_digested;
      Alcotest.(check int) "no cache hits" before.Client.chunks_cached
        after.Client.chunks_cached)

let test_hint_mismatch_raises () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, _ = setup_base rig ~content:(String.make 1024 'Z') in
      (* A wrong hint on a chunk that must physically ship is a
         cache-coherence bug at the caller and must be refused loudly. *)
      let msg =
        try
          ignore
            (Client.write_chunks base ~from:rig.client_host
               ~hints:[ (0, 0xDEADBEEFL) ]
               [ (0, fun () -> Payload.of_string (String.make 256 'H')) ]);
          "no exception"
        with Invalid_argument msg -> msg
      in
      Alcotest.(check string) "coherence bug refused"
        "Client: digest hint does not match produced content" msg)

let test_coherence_audit_catches_poke () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let base, v = setup_base rig ~content:(String.make 1024 'Z') in
      let m = make_mirror rig ~node:0 ~base ~version:v ~name:"m" in
      Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'P'));
      ignore (Mirror.commit m);
      Alcotest.(check (list string)) "clean mirror audits clean" [] (audit rig);
      (* Corrupt one cache entry; the sampled recompute-from-bytes audit
         must flag it. *)
      let chunk, good = List.hd (Mirror.snapshot m).Mirror.digests in
      Mirror.unsafe_poke_digest m ~chunk 0x5711L;
      Alcotest.(check bool) "stale digest caught" true
        (List.mem "digest-cache-coherent" (audit rig));
      (* Restore the entry so the engine's own teardown audit stays green. *)
      Mirror.unsafe_poke_digest m ~chunk good)

(* ------------------------------------------------------------------ *)
(* Scrubber Merkle precheck *)

let test_scrubber_merkle_precheck () =
  let rig = make_rig ~providers:3 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = Client.create_blob rig.service ~from ~capacity:1000 in
      let v = Client.write blob ~from ~offset:0 (Payload.of_string (String.make 300 's')) in
      let scrub = Scrubber.create rig.service ~home:from () in
      (* Healthy pass: the desc-side and storage-side roots agree for every
         live version, so site enumeration is skipped wholesale. *)
      Scrubber.scan scrub;
      let s1 = Scrubber.stats scrub in
      Alcotest.(check bool) "all versions merkle-clean" true
        (s1.Scrubber.merkle_clean_versions > 0);
      Alcotest.(check int) "nothing repaired" 0 s1.Scrubber.repairs;
      let clean_per_pass = s1.Scrubber.merkle_clean_versions in
      (* Corrupt one replica: its version's storage root is poisoned, the
         precheck falls through to enumeration, and repair proceeds exactly
         as without the precheck. *)
      let tree = Client.tree blob ~version:v in
      let desc = Option.get (Segment_tree.get tree 0) in
      let r = List.hd desc.Types.replicas in
      ignore
        (Data_provider.corrupt_chunk
           (Client.data_provider rig.service r.Types.provider)
           ~salt:9 r.Types.chunk);
      Scrubber.scan scrub;
      let s2 = Scrubber.stats scrub in
      Alcotest.(check int) "corruption repaired through precheck" 1 s2.Scrubber.repairs;
      Alcotest.(check bool) "damaged version not counted clean" true
        (s2.Scrubber.merkle_clean_versions - s1.Scrubber.merkle_clean_versions
        < clean_per_pass);
      (* After repair the next pass is fully clean again. *)
      Scrubber.scan scrub;
      let s3 = Scrubber.stats scrub in
      Alcotest.(check int) "clean again after repair" clean_per_pass
        (s3.Scrubber.merkle_clean_versions - s2.Scrubber.merkle_clean_versions);
      Alcotest.(check int) "no further repairs" 1 s3.Scrubber.repairs)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_digest_experiment_deterministic () =
  (* Engine seed 13 under fifo, run twice: traces and tables must match. *)
  match Analysis.Schedule_fuzz.find_scenario "exp:digest" with
  | None -> Alcotest.fail "digest experiment not registered"
  | Some scenario ->
      let _, findings = Analysis.Schedule_fuzz.replay ~seed:13000 scenario in
      Alcotest.(check (list string))
        "digest quick replays clean" []
        (List.map (Fmt.str "%a" Analysis.Schedule_fuzz.pp_finding) findings)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "digest"
    [
      ( "payload",
        [ Alcotest.test_case "concat keeps digest memo" `Quick test_payload_concat_memo_survives ]
      );
      ( "merkle",
        [
          Alcotest.test_case "shadow-shared subtrees reuse digests" `Quick
            test_merkle_shadow_sharing_reuses;
          Alcotest.test_case "content-equal trees agree" `Quick
            test_merkle_content_equal_trees_agree;
        ] );
      ( "mirror cache",
        [
          Alcotest.test_case "partial COW write invalidates" `Quick
            test_partial_write_invalidates_cache;
          Alcotest.test_case "clean rewrite skips digest work" `Quick
            test_clean_rewrite_skips_digest_work;
          Alcotest.test_case "dirty set exact across clone/rollback" `Quick
            test_dirty_set_exact_across_clone_rollback;
          Alcotest.test_case "taint_all clears the cache" `Quick test_taint_all_clears_cache;
          Alcotest.test_case "hint mismatch refused" `Quick test_hint_mismatch_raises;
          Alcotest.test_case "coherence audit catches stale digest" `Quick
            test_coherence_audit_catches_poke;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "merkle precheck skips clean, repairs corrupt" `Quick
            test_scrubber_merkle_precheck;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digest experiment replays identically" `Quick
            test_digest_experiment_deterministic;
        ] );
    ]
