(* Tests for snapshot-chain retention and compaction: retention-policy
   edge cases, the compactor's journaled crash-safe transaction (all
   three crash points, transient-read retries, the deferred sweep, racing
   clones), the chaos acceptance surface, and the qcow2 delta-chain
   baseline (incremental export + chain collapse). *)

open Simcore
open Netsim
open Storage
open Blobseer

(* ------------------------------------------------------------------ *)
(* Retention policy edges (pure planning, no engine) *)

let check_plan name (plan : Retention.plan) ~keep ~retire =
  Alcotest.(check (list int)) (name ^ " keep") keep plan.Retention.keep;
  Alcotest.(check (list int)) (name ^ " retire") retire plan.Retention.retire

let test_keep_last_edges () =
  let versions = [ 0; 1; 2; 3; 4; 5 ] in
  (* keep_last_0 and keep_last_1 both clamp to keeping only the tip. *)
  check_plan "keep_last_0"
    (Retention.plan (Retention.Keep_last 0) ~versions ~latest:5)
    ~keep:[ 5 ] ~retire:[ 0; 1; 2; 3; 4 ];
  check_plan "keep_last_1"
    (Retention.plan (Retention.Keep_last 1) ~versions ~latest:5)
    ~keep:[ 5 ] ~retire:[ 0; 1; 2; 3; 4 ];
  (* A keep budget larger than the chain keeps everything. *)
  check_plan "keep_last_9"
    (Retention.plan (Retention.Keep_last 9) ~versions ~latest:5)
    ~keep:versions ~retire:[];
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Retention.plan: negative keep_last") (fun () ->
      ignore (Retention.plan (Retention.Keep_last (-1)) ~versions ~latest:5))

let test_thinning_short_chain () =
  (* A chain shorter than the base is kept whole... *)
  check_plan "short chain"
    (Retention.plan (Retention.Thin_exponential { base = 4 }) ~versions:[ 0; 1; 2 ] ~latest:2)
    ~keep:[ 0; 1; 2 ] ~retire:[];
  (* ...and a single-version chain is untouchable under any policy. *)
  check_plan "single version"
    (Retention.plan (Retention.Thin_exponential { base = 2 }) ~versions:[ 0 ] ~latest:0)
    ~keep:[ 0 ] ~retire:[]

(* ------------------------------------------------------------------ *)
(* Compactor rig *)

type rig = {
  engine : Engine.t;
  service : Client.t;
  client_host : Net.host;
  disks : Disk.t list;
}

let make_rig ?(providers = 4) ?(stripe = 100) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let md_hosts = [ Net.add_host net ~name:"meta0" ] in
  let data =
    List.init providers (fun i ->
        let host = Net.add_host net ~name:(Fmt.str "node%d" i) in
        let disk = Disk.create engine ~name:(Fmt.str "disk%d" i) () in
        (host, disk))
  in
  let client_host = Net.add_host net ~name:"client" in
  let params = { Types.default_params with stripe_size = stripe; replication = 1 } in
  let service =
    Client.deploy engine net ~params ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts ~data_providers:data
  in
  { engine; service; client_host; disks = List.map snd data }

let run_rig rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine ~name:"test-main" (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

(* 300-byte payload of three distinct 100-byte chunks, unique per tag. *)
let content tag = String.concat "" (List.init 3 (fun i -> String.make 100 (Char.chr (tag + i))))

let make_compactor rig ~keep =
  Compactor.create rig.service ~home:rig.client_host
    ~config:{ Compactor.policy = Retention.Keep_last keep }

(* A blob with [writes] full-image rewrites of pairwise distinct content:
   versions 1..writes, each owning its own three chunks. *)
let seeded_blob rig ~writes =
  let blob = Client.create_blob rig.service ~from:rig.client_host ~capacity:300 in
  for v = 1 to writes do
    ignore
      (Client.write blob ~from:rig.client_host ~offset:0
         (Payload.of_string (content (Char.code 'a' + (4 * v)))))
  done;
  blob

let read_str blob ~from ~version =
  Payload.to_string (Client.read blob ~from ~version ~offset:0 ~len:300)

let test_compaction_end_to_end () =
  let rig = make_rig () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      let repo = Client.repository_bytes rig.service in
      Compactor.scan c;
      Alcotest.(check (list int)) "live after scan" [ 3; 4 ] (Client.versions blob);
      Alcotest.(check (list int)) "retired recorded" [ 0; 1; 2 ]
        (Version_manager.retired_versions
           (Client.version_manager rig.service)
           ~blob:(Client.blob_id blob));
      (* Reclamation is deferred by one pass: nothing deleted yet. *)
      Alcotest.(check (list (pair int int))) "no chunks deleted yet" []
        (Compactor.reclaimed_chunks c);
      Alcotest.(check bool) "sweep queued" true (Compactor.pending_reclaim c > 0);
      Alcotest.(check int) "repository not yet shrunk" repo
        (Client.repository_bytes rig.service);
      Compactor.scan c;
      let s = Compactor.stats c in
      Alcotest.(check int) "six chunks reclaimed" 6 s.Compactor.chunks_reclaimed;
      Alcotest.(check int) "six hundred bytes reclaimed" 600 s.Compactor.bytes_reclaimed;
      Alcotest.(check int) "repository shrunk" (repo - 600)
        (Client.repository_bytes rig.service);
      (* Surviving versions stay byte-identical; retired reads are gone. *)
      Alcotest.(check string) "latest intact" (content (Char.code 'a' + 16))
        (read_str blob ~from ~version:4);
      Alcotest.(check string) "boundary intact" (content (Char.code 'a' + 12))
        (read_str blob ~from ~version:3);
      Alcotest.check_raises "retired version unreadable" Not_found (fun () ->
          ignore (read_str blob ~from ~version:2));
      Alcotest.(check int) "journal quiescent" 0 (Compactor.journal_pending c))

let test_merkle_flatten_skips_reads () =
  (* The flatten verifies the boundary version with one subtree-digest
     compare plus provider-local replica checks — no remote verify-reads
     of cold data. *)
  let c, s =
    let rig = make_rig () in
    run_rig rig (fun () ->
        ignore (seeded_blob rig ~writes:4);
        let c = make_compactor rig ~keep:2 in
        Compactor.scan c;
        (c, Compactor.stats c))
  in
  Alcotest.(check bool) "cold chunks verified" true (s.Compactor.chunks_verified > 0);
  Alcotest.(check int) "no remote verify-reads" 0 s.Compactor.flatten_bytes_read;
  Alcotest.(check bool) "verified provider-locally" true
    (s.Compactor.flatten_bytes_local > 0);
  Alcotest.(check bool) "boundary root compare clean" true
    (s.Compactor.merkle_clean_bounds > 0);
  (match Compactor.boundary_roots c with
  | [] -> Alcotest.fail "no boundary root recorded"
  | (blob_id, version, root) :: _ ->
      Alcotest.(check bool) "root recorded for boundary" true
        (blob_id >= 0 && version > 0 && root <> 0L))

let expect_crash name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Service_crashed" name
  | exception Types.Service_crashed _ -> ()

let test_crash_before_flatten_rolls_back () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      Compactor.arm_crash c Compactor.Before_flatten;
      expect_crash "before-flatten" (fun () -> Compactor.scan c);
      Alcotest.(check bool) "down" false (Compactor.is_alive c);
      Alcotest.(check int) "intent pending" 1 (Compactor.journal_pending c);
      Compactor.restart c;
      let s = Compactor.stats c in
      Alcotest.(check int) "rolled back" 1 s.Compactor.rolled_back;
      Alcotest.(check int) "nothing rolled forward" 0 s.Compactor.rolled_forward;
      (* Nothing was retired: the old state is intact and retryable. *)
      Alcotest.(check (list int)) "all versions live" [ 0; 1; 2; 3; 4 ]
        (Client.versions blob);
      Compactor.scan c;
      Alcotest.(check (list int)) "retry compacts" [ 3; 4 ] (Client.versions blob))

let crash_forward_case point =
  let rig = make_rig () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      Compactor.arm_crash c point;
      expect_crash "mid-transaction" (fun () -> Compactor.scan c);
      Compactor.restart c;
      let s = Compactor.stats c in
      Alcotest.(check int) "rolled forward" 1 s.Compactor.rolled_forward;
      (* The committed outcome was reached: retires completed, no live
         version lost, survivors byte-identical. *)
      Alcotest.(check (list int)) "keep set live" [ 3; 4 ] (Client.versions blob);
      Alcotest.(check string) "latest intact" (content (Char.code 'a' + 16))
        (read_str blob ~from ~version:4);
      for _ = 1 to 2 do
        Compactor.scan c
      done;
      Alcotest.(check int) "chunks reclaimed after settle" 6
        (Compactor.stats c).Compactor.chunks_reclaimed;
      Alcotest.(check int) "journal quiescent" 0 (Compactor.journal_pending c);
      Alcotest.(check (list string)) "engine audits clean" []
        (List.map
           (fun v -> Fmt.str "%a" Engine.pp_violation v)
           (Engine.audit rig.engine)))

let test_crash_mid_retire_rolls_forward () = crash_forward_case Compactor.Mid_retire
let test_crash_after_retire_rolls_forward () = crash_forward_case Compactor.After_retire

let test_transient_reads_absorbed () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      (* One transient per provider disk. Every cold chunk verifies
         provider-locally, so the flatten reads nothing: the pass completes
         and leaves each fault armed, and the next client read absorbs them
         in the provider-side disk retries. *)
      List.iter (fun disk -> Disk.inject_transient disk ~ops:1) rig.disks;
      Compactor.scan c;
      let s = Compactor.stats c in
      Alcotest.(check int) "no aborted transactions" 0 s.Compactor.flatten_failures;
      Alcotest.(check (list int)) "compaction completed" [ 3; 4 ] (Client.versions blob);
      Alcotest.(check (list int)) "faults still armed" [ 1; 1; 1; 1 ]
        (List.map Disk.armed_faults rig.disks);
      Alcotest.(check string) "latest read absorbs them" (content (Char.code 'a' + 16))
        (read_str blob ~from:rig.client_host ~version:4))

(* Corrupts the only replica of chunk [index] of [version]. *)
let corrupt_chunk rig blob ~version ~index =
  let tree =
    Version_manager.peek_tree (Client.version_manager rig.service) ~blob:(Client.blob_id blob)
      ~version
  in
  match Segment_tree.get tree index with
  | Some { Types.replicas = [ r ]; _ } ->
      Alcotest.(check bool) "corruption landed" true
        (Data_provider.corrupt_chunk (Client.data_provider rig.service r.Types.provider) ~salt:1
           r.Types.chunk)
  | _ -> Alcotest.fail "expected one replica"

(* The remote verify-read fallback. The boundary version's first chunk is
   cold and its only replica is corrupt, so no replica verifies it
   provider-locally and the flatten reads it remotely. 16 armed transients
   per disk exhaust that read's retry budget (4 client failover rounds x
   4 provider disk attempts) and the transaction aborts: intent rolled
   back, nothing retired. Each later pass retries; once the transients
   drain, the read fails its checksum instead, and the pass still aborts
   rather than retire what a restart of the boundary would need. *)
let test_transient_exhaustion_aborts_then_retries () =
  let rig = make_rig () in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      corrupt_chunk rig blob ~version:3 ~index:0;
      List.iter (fun disk -> Disk.inject_transient disk ~ops:16) rig.disks;
      Compactor.scan c;
      let s = Compactor.stats c in
      Alcotest.(check int) "transaction aborted" 1 s.Compactor.flatten_failures;
      Alcotest.(check int) "no clean boundary compare" 0 s.Compactor.merkle_clean_bounds;
      Alcotest.(check int) "aborted intent resolved" 0 (Compactor.journal_pending c);
      Alcotest.(check (list int)) "nothing retired" [ 0; 1; 2; 3; 4 ] (Client.versions blob);
      for _ = 1 to 6 do
        Compactor.scan c
      done;
      Alcotest.(check int) "every pass retried and aborted" 7
        (Compactor.stats c).Compactor.flatten_failures;
      Alcotest.(check (list int)) "still nothing retired" [ 0; 1; 2; 3; 4 ]
        (Client.versions blob);
      Alcotest.(check int) "journal quiescent" 0 (Compactor.journal_pending c);
      (* Disks holding only tip chunks still carry armed transients the
         flatten never touched; each failed attempt drains some. *)
      let rec read_eventually n =
        match read_str blob ~from:rig.client_host ~version:4 with
        | s -> s
        | exception Types.Provider_down _ when n < 8 -> read_eventually (n + 1)
      in
      Alcotest.(check string) "latest intact" (content (Char.code 'a' + 16))
        (read_eventually 0))

let test_retention_races_clone () =
  let rig = make_rig () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = seeded_blob rig ~writes:4 in
      let c = make_compactor rig ~keep:2 in
      let cloned = ref None in
      (* A CLONE of a version the policy retires. A pass whose cold chunks
         all verify provider-locally takes no simulated time, so a clone
         applies wholly before or after it. This one has applied at the
         version manager 1.15 ms in (its reply lands at 1.2 ms), and the
         passes run while that reply is still in flight. *)
      let _ =
        Engine.Fiber.spawn rig.engine ~name:"cloner" (fun () ->
            match Client.clone blob ~from ~version:1 with
            | b -> cloned := Some (Ok b)
            | exception Not_found -> cloned := Some (Error "already retired"))
      in
      Engine.sleep rig.engine 1.15e-3;
      Alcotest.(check bool) "clone reply in flight" true (Option.is_none !cloned);
      Compactor.scan c;
      Compactor.scan c;
      Compactor.scan c;
      Alcotest.(check (list int)) "version 1 retired" [ 3; 4 ] (Client.versions blob);
      Engine.sleep rig.engine 1e-3;
      (match !cloned with
      | Some (Ok clone) ->
          (* The clone shares the retired version's chunks, so the sweeps
             must have spared them. *)
          Alcotest.(check string) "clone readable after sweeps"
            (content (Char.code 'a' + 4))
            (read_str clone ~from ~version:0)
      | Some (Error e) -> Alcotest.failf "clone failed: %s" e
      | None -> Alcotest.fail "clone still in flight after the passes");
      Alcotest.(check (list string)) "engine audits clean" []
        (List.map
           (fun v -> Fmt.str "%a" Engine.pp_violation v)
           (Engine.audit rig.engine)))

(* ------------------------------------------------------------------ *)
(* Chaos acceptance: crashes and transients must not change the settled
   outcome — the restored image is byte-identical to a fault-free run and
   the live/retired sets are the retention policy's fixed point. *)

let test_chaos_settles_byte_identical () =
  let scale = Experiments.Scale.quick in
  let depth = 4 in
  let policy = Blobseer.Retention.Keep_last scale.Experiments.Scale.chains_keep_last in
  let script _cluster _compactor =
    [
      { Faults.at = 0.002; action = Faults.Crash_compaction { point = 0 } };
      { Faults.at = 0.004; action = Faults.Transient_disk { target = 0; ops = 2 } };
      { Faults.at = 0.006; action = Faults.Crash_compaction { point = 1 } };
      { Faults.at = 0.008; action = Faults.Crash_service 1 };
      { Faults.at = 0.010; action = Faults.Crash_compaction { point = 2 } };
    ]
  in
  let chaos = Experiments.Chains.chaos_run scale ~script ~depth () in
  let clean = Experiments.Chains.bs_run scale ~policy ~depth () in
  let co = chaos.Experiments.Chains.c_outcome in
  Alcotest.(check bool) "faults were injected" true
    (chaos.Experiments.Chains.c_injected <> []);
  Alcotest.(check string) "restored image byte-identical"
    (Fmt.str "%Lx" clean.Experiments.Chains.restart_digest)
    (Fmt.str "%Lx" co.Experiments.Chains.restart_digest);
  Alcotest.(check (list int)) "live set is the retention fixed point"
    clean.Experiments.Chains.live_versions co.Experiments.Chains.live_versions;
  Alcotest.(check (list int)) "retired set matches"
    clean.Experiments.Chains.retired_versions co.Experiments.Chains.retired_versions;
  Alcotest.(check (list string)) "invariants hold under chaos" []
    (List.map
       (fun v -> Fmt.str "%a" Engine.pp_violation v)
       (Engine.audit co.Experiments.Chains.engine))

let test_fault_profile_targets_services () =
  let rng = Rng.create 7 in
  let script =
    Faults.of_profile ~rng ~mtbf:1.0 ~horizon:50.0 ~hosts:4 ~providers:4
      ~weights:(0, 0, 0, 0) ~service_weight:1 ()
  in
  Alcotest.(check bool) "profile non-empty" true (script <> []);
  List.iter
    (fun (e : Faults.event) ->
      match e.Faults.action with
      | Faults.Crash_service i ->
          Alcotest.(check bool) "service index in range" true (i >= 0 && i < 3)
      | a -> Alcotest.failf "unexpected action %a" Faults.pp_action a)
    script

(* ------------------------------------------------------------------ *)
(* qcow2 delta chains *)

type qrig = {
  qengine : Engine.t;
  fs : Pvfs.t;
  qnodes : (Net.host * Disk.t) array;
}

let make_qrig ?(nodes = 3) () =
  let qengine = Engine.create () in
  let net = Net.create qengine { Net.default_config with latency = 1e-4 } in
  let md_host = Net.add_host net ~name:"pvfs-md" in
  let qnodes =
    Array.init nodes (fun i ->
        ( Net.add_host net ~name:(Fmt.str "node%d" i),
          Disk.create qengine ~name:(Fmt.str "nodedisk%d" i) () ))
  in
  let fs =
    Pvfs.deploy qengine net
      ~params:{ Pvfs.default_params with stripe_size = 1024 }
      ~metadata_host:md_host ~io_servers:(Array.to_list qnodes)
  in
  { qengine; fs; qnodes }

let run_qrig rig f =
  let result = ref None in
  let _ =
    Engine.Fiber.spawn rig.qengine ~name:"test-main" (fun () -> result := Some (f ()))
  in
  Engine.run rig.qengine;
  Option.get !result

let qimage rig ~node ~name ~backing =
  let host, disk = rig.qnodes.(node) in
  Vdisk.Qcow2.create rig.qengine ~host ~local_disk:disk ~cluster_size:1024
    ~capacity:(8 * 1024) ~backing ~name ()

let test_qcow2_incremental_export () =
  let rig = make_qrig () in
  run_qrig rig (fun () ->
      let host0 = fst rig.qnodes.(0) in
      let img = qimage rig ~node:0 ~name:"base" ~backing:Vdisk.Qcow2.No_backing in
      Vdisk.Qcow2.write img ~offset:0 (Payload.pattern ~seed:1L (8 * 1024));
      let r0 = Vdisk.Qcow2.export img rig.fs ~from:host0 ~path:"/l0" in
      let full = Vdisk.Qcow2.remote_file_size r0 in
      Alcotest.(check bool) "full export is not a delta" false
        (Vdisk.Qcow2.remote_is_delta r0);
      (* Dirty two clusters: the delta ships exactly those. *)
      Vdisk.Qcow2.write img ~offset:0 (Payload.pattern ~seed:2L 2048);
      let r1 = Vdisk.Qcow2.export_incremental img rig.fs ~from:host0 ~path:"/l1" ~base:r0 in
      Alcotest.(check bool) "delta flagged" true (Vdisk.Qcow2.remote_is_delta r1);
      Alcotest.(check int) "chain depth 2" 2 (Vdisk.Qcow2.remote_chain_depth r1);
      Alcotest.(check bool) "delta smaller than full" true
        (Vdisk.Qcow2.remote_file_size r1 < full);
      (* A no-change export ships tables only. *)
      let r2 = Vdisk.Qcow2.export_incremental img rig.fs ~from:host0 ~path:"/l2" ~base:r1 in
      Alcotest.(check bool) "empty delta smaller still" true
        (Vdisk.Qcow2.remote_file_size r2 < Vdisk.Qcow2.remote_file_size r1);
      (* Restart through the chain is byte-identical to the source. *)
      let rimg = qimage rig ~node:1 ~name:"restart" ~backing:(Vdisk.Qcow2.Qcow2_remote r2) in
      Alcotest.(check bool) "chain readback identical" true
        (Payload.equal
           (Vdisk.Qcow2.read img ~offset:0 ~len:(8 * 1024))
           (Vdisk.Qcow2.read rimg ~offset:0 ~len:(8 * 1024))))

let test_qcow2_collapse_chain () =
  let rig = make_qrig () in
  run_qrig rig (fun () ->
      let host0 = fst rig.qnodes.(0) in
      let img = qimage rig ~node:0 ~name:"base" ~backing:Vdisk.Qcow2.No_backing in
      Vdisk.Qcow2.write img ~offset:0 (Payload.pattern ~seed:1L (8 * 1024));
      let r0 = Vdisk.Qcow2.export img rig.fs ~from:host0 ~path:"/l0" in
      Vdisk.Qcow2.write img ~offset:0 (Payload.pattern ~seed:2L 2048);
      let r1 = Vdisk.Qcow2.export_incremental img rig.fs ~from:host0 ~path:"/l1" ~base:r0 in
      Vdisk.Qcow2.write img ~offset:2048 (Payload.pattern ~seed:3L 2048);
      let r2 = Vdisk.Qcow2.export_incremental img rig.fs ~from:host0 ~path:"/l2" ~base:r1 in
      Alcotest.(check int) "chain depth 3" 3 (Vdisk.Qcow2.remote_chain_depth r2);
      let collapsed, stats = Vdisk.Qcow2.collapse_chain r2 ~from:host0 ~path:"/c" in
      Alcotest.(check int) "three levels merged" 3 stats.Vdisk.Qcow2.levels_collapsed;
      Alcotest.(check int) "eight unique clusters" 8 stats.Vdisk.Qcow2.clusters_unique;
      Alcotest.(check bool) "retired bytes reclaimed" true
        (stats.Vdisk.Qcow2.bytes_reclaimed > stats.Vdisk.Qcow2.bytes_shipped);
      Alcotest.(check int) "standalone result" 1
        (Vdisk.Qcow2.remote_chain_depth collapsed);
      List.iter
        (fun path ->
          Alcotest.(check bool) (path ^ " deleted") false (Pvfs.exists rig.fs ~path))
        [ "/l0"; "/l1"; "/l2" ];
      let rimg =
        qimage rig ~node:1 ~name:"restart" ~backing:(Vdisk.Qcow2.Qcow2_remote collapsed)
      in
      Alcotest.(check bool) "collapsed readback identical" true
        (Payload.equal
           (Vdisk.Qcow2.read img ~offset:0 ~len:(8 * 1024))
           (Vdisk.Qcow2.read rimg ~offset:0 ~len:(8 * 1024))))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chains"
    [
      ( "retention",
        [
          Alcotest.test_case "keep_last edges" `Quick test_keep_last_edges;
          Alcotest.test_case "thinning short chain" `Quick test_thinning_short_chain;
        ] );
      ( "compactor",
        [
          Alcotest.test_case "end to end with deferred sweep" `Quick
            test_compaction_end_to_end;
          Alcotest.test_case "merkle flatten skips remote reads" `Quick
            test_merkle_flatten_skips_reads;
          Alcotest.test_case "crash before flatten rolls back" `Quick
            test_crash_before_flatten_rolls_back;
          Alcotest.test_case "crash mid retire rolls forward" `Quick
            test_crash_mid_retire_rolls_forward;
          Alcotest.test_case "crash after retire rolls forward" `Quick
            test_crash_after_retire_rolls_forward;
          Alcotest.test_case "transient reads absorbed" `Quick
            test_transient_reads_absorbed;
          Alcotest.test_case "transient exhaustion aborts then retries" `Quick
            test_transient_exhaustion_aborts_then_retries;
          Alcotest.test_case "retention races clone" `Quick test_retention_races_clone;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "settles byte-identical" `Quick
            test_chaos_settles_byte_identical;
          Alcotest.test_case "fault profile targets services" `Quick
            test_fault_profile_targets_services;
        ] );
      ( "qcow2",
        [
          Alcotest.test_case "incremental export" `Quick test_qcow2_incremental_export;
          Alcotest.test_case "collapse chain" `Quick test_qcow2_collapse_chain;
        ] );
    ]
