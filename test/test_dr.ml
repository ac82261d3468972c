(* Tests for the geo-replication subsystem and disaster recovery: journal
   shipping converges the standby to the primary, replay is idempotent
   under duplicate delivery (including dedup refcounts), the in-flight
   window is honoured, promotion reports losses accurately, and a
   supervised run survives a full site crash by failing over — twice,
   byte-identically. *)

open Simcore
open Blobseer
open Blobcr

let scale = Experiments.Scale.quick
let quick_cal = scale.Experiments.Scale.cal

(* (index, digest, size) of every written leaf — the logical content of a
   snapshot, independent of placement, serials and replica count. *)
let leaves tree =
  List.rev
    (Segment_tree.fold_set
       (fun i (d : Types.chunk_desc) acc -> (i, d.Types.digest, d.Types.size) :: acc)
       tree [])

let standby_service cluster =
  match cluster.Cluster.dr with
  | Some d -> d.Cluster.standby_service
  | None -> Alcotest.fail "cluster has no standby site"

let check_converged cluster =
  let pvm = Client.version_manager cluster.Cluster.service in
  let svm = Client.version_manager (standby_service cluster) in
  Alcotest.(check (list int)) "same blobs" (Version_manager.blob_ids pvm)
    (Version_manager.blob_ids svm);
  List.iter
    (fun blob ->
      let latest = Version_manager.peek_latest pvm blob in
      Alcotest.(check int)
        (Fmt.str "blob %d latest" blob)
        latest
        (Version_manager.peek_latest svm blob);
      for version = 1 to latest do
        Alcotest.(check bool)
          (Fmt.str "blob %d version %d leaves equal" blob version)
          true
          (leaves (Version_manager.peek_tree pvm ~blob ~version)
          = leaves (Version_manager.peek_tree svm ~blob ~version))
      done)
    (Version_manager.blob_ids pvm)

let write_version cluster ~tag =
  let from = (Cluster.node cluster 0).Cluster.host in
  Client.write cluster.Cluster.base_blob ~from ~offset:0
    (Payload.of_string (tag ^ String.make 300 'x'))

(* Cluster.run drives the engine only until its driver fiber finishes, so
   a driver that wants a converged pair must drain the pipeline itself. *)
let quiesce cluster = Replicator.quiesce (Option.get (Cluster.replicator cluster))

(* ------------------------------------------------------------------ *)
(* Shipping convergence *)

let test_initial_sync_and_live_tail () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  Cluster.run cluster (fun () ->
      let _ = write_version cluster ~tag:"v-a" in
      let _ = write_version cluster ~tag:"v-b" in
      quiesce cluster);
  check_converged cluster;
  let stats = Replicator.stats (Option.get (Cluster.replicator cluster)) in
  Alcotest.(check int) "no lag after drain" 0 stats.Replicator.lag;
  Alcotest.(check bool) "records flowed" true (stats.Replicator.records_applied > 0);
  Alcotest.(check bool) "chunk bytes crossed the WAN" true
    (stats.Replicator.bytes_shipped > 0)

let test_clone_replicated () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  let clone_id =
    Cluster.run cluster (fun () ->
        let v = write_version cluster ~tag:"v-c" in
        let from = cluster.Cluster.supervisor_host in
        let id = Client.blob_id (Client.clone cluster.Cluster.base_blob ~from ~version:v) in
        quiesce cluster;
        id)
  in
  check_converged cluster;
  let svm = Client.version_manager (standby_service cluster) in
  Alcotest.(check bool) "clone exists on standby" true
    (List.mem clone_id (Version_manager.blob_ids svm))

let test_version_ok_on_replicated_snapshot () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  let v =
    Cluster.run cluster (fun () ->
        let v = write_version cluster ~tag:"v-d" in
        quiesce cluster;
        v)
  in
  let r = Option.get (Cluster.replicator cluster) in
  let blob = Client.blob_id cluster.Cluster.base_blob in
  Alcotest.(check bool) "replicated version restorable" true
    (Replicator.version_ok r ~blob ~version:v);
  Alcotest.(check bool) "unpublished version not restorable" false
    (Replicator.version_ok r ~blob ~version:(v + 17))

(* ------------------------------------------------------------------ *)
(* Idempotent replay *)

let test_duplicate_delivery_idempotent () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  let v =
    Cluster.run cluster (fun () ->
        let v = write_version cluster ~tag:"v-e" in
        quiesce cluster;
        v)
  in
  check_converged cluster;
  let r = Option.get (Cluster.replicator cluster) in
  let standby = standby_service cluster in
  let blob = Client.blob_id cluster.Cluster.base_blob in
  let dedup_view () =
    Dedup_index.view (Provider_manager.dedup_index (Client.provider_manager standby))
  in
  let skips_before = (Replicator.stats r).Replicator.duplicate_skips in
  let latest_before = Version_manager.peek_latest (Client.version_manager standby) blob in
  let view_before = dedup_view () in
  (* Redeliver the whole committed history, plus the creation record. *)
  Cluster.run cluster (fun () ->
      Replicator.inject r
        (Version_manager.Blob_created
           {
             blob;
             capacity = Client.capacity cluster.Cluster.base_blob;
             stripe_size = Client.stripe_size cluster.Cluster.base_blob;
           });
      for version = 1 to v do
        Replicator.inject r (Version_manager.Published { blob; version })
      done;
      quiesce cluster);
  check_converged cluster;
  let stats = Replicator.stats r in
  Alcotest.(check int) "every redelivery skipped as duplicate" (skips_before + v + 1)
    stats.Replicator.duplicate_skips;
  Alcotest.(check int) "standby latest unchanged" latest_before
    (Version_manager.peek_latest (Client.version_manager standby) blob);
  Alcotest.(check bool) "standby dedup refcounts unchanged" true
    (dedup_view () = view_before)

let test_repair_records_are_noops () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  let v =
    Cluster.run cluster (fun () ->
        let v = write_version cluster ~tag:"v-f" in
        quiesce cluster;
        v)
  in
  let r = Option.get (Cluster.replicator cluster) in
  let blob = Client.blob_id cluster.Cluster.base_blob in
  let before = Replicator.stats r in
  Cluster.run cluster (fun () ->
      Replicator.inject r (Version_manager.Repaired { blob; version = v; index = 0 });
      quiesce cluster);
  let stats = Replicator.stats r in
  Alcotest.(check int) "repair skipped" (before.Replicator.skipped_repairs + 1)
    stats.Replicator.skipped_repairs;
  check_converged cluster

(* ------------------------------------------------------------------ *)
(* Window bound *)

let test_window_bound_respected () =
  let config = { Replicator.default_config with window = 2 } in
  let cluster = Cluster.build ~dr:config quick_cal in
  Cluster.run cluster (fun () ->
      for i = 1 to 6 do
        ignore (write_version cluster ~tag:(Fmt.str "v-w%d" i))
      done;
      quiesce cluster);
  check_converged cluster;
  let stats = Replicator.stats (Option.get (Cluster.replicator cluster)) in
  Alcotest.(check bool)
    (Fmt.str "max inflight %d <= window 2" stats.Replicator.max_inflight)
    true
    (stats.Replicator.max_inflight <= 2)

(* ------------------------------------------------------------------ *)
(* Promotion and loss accounting *)

let test_promote_after_site_crash () =
  let cluster = Cluster.build ~dr:Replicator.default_config quick_cal in
  let v =
    Cluster.run cluster (fun () ->
        let v = write_version cluster ~tag:"v-g" in
        quiesce cluster;
        v)
  in
  (* Crash the site with nothing in flight: promotion must report zero
     loss and the standby must serve the latest version. *)
  let promotion =
    Cluster.run cluster (fun () ->
        Cluster.crash_site cluster;
        Cluster.promote_standby cluster)
  in
  Alcotest.(check int) "no versions lost" 0 promotion.Replicator.lost_versions;
  Alcotest.(check int) "no bytes lost" 0 promotion.Replicator.lost_bytes;
  Alcotest.(check bool) "cluster marked promoted" true (Cluster.promoted cluster);
  (* t.service now points at the standby; the latest snapshot reads back. *)
  Cluster.run cluster (fun () ->
      let from = cluster.Cluster.supervisor_host in
      let p =
        Client.read cluster.Cluster.base_blob ~from ~version:v ~offset:0 ~len:3
      in
      Alcotest.(check string) "standby serves latest snapshot" "v-g"
        (Payload.to_string p))

let test_crash_site_without_standby_is_noop () =
  let cluster = Cluster.build quick_cal in
  Cluster.run cluster (fun () -> Cluster.crash_site cluster);
  Alcotest.(check bool) "no site failure recorded" false (Cluster.site_failed cluster);
  Alcotest.(check bool) "nodes survive" false (Cluster.node_failed cluster 0)

(* ------------------------------------------------------------------ *)
(* End-to-end disaster recovery *)

let dr_outcome =
  lazy (Experiments.Dr.dr_run scale ~interval:2 ~gang:2 ~units:scale.Experiments.Scale.dr_units ())

let test_failover_end_to_end () =
  let o = Lazy.force dr_outcome in
  Alcotest.(check bool) "run finished on the standby" true
    o.Experiments.Dr.report.Supervisor.finished;
  Alcotest.(check bool) "a failover happened" true o.Experiments.Dr.failed_over;
  Alcotest.(check int) "no integrity failures" 0 o.Experiments.Dr.integrity_failures;
  Alcotest.(check (list string)) "supervisor accounting clean" []
    o.Experiments.Dr.audit;
  Alcotest.(check bool) "RTO measured" true (o.Experiments.Dr.rto > 0.0);
  Alcotest.(check bool) "RPO non-negative" true (o.Experiments.Dr.rpo_versions >= 0)

let test_failover_deterministic_replay () =
  let a = Lazy.force dr_outcome in
  let b =
    Experiments.Dr.dr_run scale ~interval:2 ~gang:2 ~units:scale.Experiments.Scale.dr_units ()
  in
  Alcotest.(check bool) "identical restored state" true
    (a.Experiments.Dr.digests = b.Experiments.Dr.digests);
  Alcotest.(check int) "identical RPO" a.Experiments.Dr.rpo_versions
    b.Experiments.Dr.rpo_versions;
  Alcotest.(check (float 1e-9)) "identical RTO" a.Experiments.Dr.rto b.Experiments.Dr.rto

let () =
  Alcotest.run "dr"
    [
      ( "shipping",
        [
          Alcotest.test_case "initial sync + live tail converge" `Quick
            test_initial_sync_and_live_tail;
          Alcotest.test_case "clone replicated" `Quick test_clone_replicated;
          Alcotest.test_case "version_ok on replicated snapshot" `Quick
            test_version_ok_on_replicated_snapshot;
        ] );
      ( "idempotence",
        [
          Alcotest.test_case "duplicate delivery skipped" `Quick
            test_duplicate_delivery_idempotent;
          Alcotest.test_case "repair records are no-ops" `Quick
            test_repair_records_are_noops;
        ] );
      ( "window",
        [ Alcotest.test_case "in-flight bound respected" `Quick test_window_bound_respected ] );
      ( "promotion",
        [
          Alcotest.test_case "promote after site crash" `Quick test_promote_after_site_crash;
          Alcotest.test_case "crash_site without standby is a no-op" `Quick
            test_crash_site_without_standby_is_noop;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "failover end to end" `Quick test_failover_end_to_end;
          Alcotest.test_case "deterministic replay" `Quick
            test_failover_deterministic_replay;
        ] );
    ]
