(* Tests for the virtual disk stack: sparse bytes, block devices, qcow2
   (COW, backing chains, internal snapshots, export), prefetcher and the
   BlobCR mirroring module. *)

open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk

(* ------------------------------------------------------------------ *)
(* Sparse_bytes *)

let test_sparse_bytes_roundtrip () =
  let s = Sparse_bytes.create ~block_size:16 () in
  Sparse_bytes.write s ~offset:10 (Payload.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Payload.to_string (Sparse_bytes.read s ~offset:10 ~len:5));
  Alcotest.(check string) "hole before" "\000\000" (Payload.to_string (Sparse_bytes.read s ~offset:8 ~len:2))

let test_sparse_bytes_overwrite () =
  let s = Sparse_bytes.create ~block_size:8 () in
  Sparse_bytes.write s ~offset:0 (Payload.of_string "aaaaaaaaaa");
  Sparse_bytes.write s ~offset:4 (Payload.of_string "bb");
  Alcotest.(check string) "spliced" "aaaabbaaaa"
    (Payload.to_string (Sparse_bytes.read s ~offset:0 ~len:10))

type sparse_op =
  | Fill of int * int * char (* offset, length, byte *)
  | Write_back of int (* full-block read of a block, written back *)
  | Clear

let prop_sparse_bytes_matches_reference =
  let bs = 13 and space = 2000 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (frequency
           [
             ( 8,
               let* offset = frequency [ (3, int_range 0 200); (1, int_range 0 (space - 61)) ] in
               let* len = int_range 1 60 in
               let* ch = printable in
               return (Fill (offset, len, ch)) );
             (2, map (fun b -> Write_back b) (int_range 0 ((space / bs) - 1)));
             (1, return Clear);
           ]))
  in
  let print =
    QCheck.Print.list (function
      | Fill (o, l, c) -> Printf.sprintf "fill %d+%d %C" o l c
      | Write_back b -> Printf.sprintf "write-back %d" b
      | Clear -> "clear")
  in
  QCheck.Test.make ~name:"sparse bytes match reference" ~count:200 (QCheck.make ~print gen)
    (fun ops ->
      let s = Sparse_bytes.create ~block_size:bs () in
      let reference = Bytes.make space '\000' in
      (* Blocks written since the last clear, whatever the bytes. *)
      let touched = ref [] in
      let touch first last =
        touched := List.sort_uniq compare (List.init (last - first + 1) (( + ) first) @ !touched)
      in
      List.iter
        (function
          | Fill (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              touch (offset / bs) ((offset + len - 1) / bs);
              Sparse_bytes.write s ~offset (Payload.of_string (String.make len ch))
          | Write_back b ->
              touch b b;
              Sparse_bytes.write s ~offset:(b * bs) (Sparse_bytes.read s ~offset:(b * bs) ~len:bs)
          | Clear ->
              Bytes.fill reference 0 space '\000';
              touched := [];
              Sparse_bytes.clear s)
        ops;
      Payload.to_string (Sparse_bytes.read s ~offset:0 ~len:space) = Bytes.to_string reference
      && Sparse_bytes.written_bytes s = List.length !touched * bs
      && Payload.to_string (Sparse_bytes.read s ~offset:(space - 7) ~len:(4 * bs))
         = Bytes.sub_string reference (space - 7) 7 ^ String.make ((4 * bs) - 7) '\000')

(* ------------------------------------------------------------------ *)
(* Block_dev *)

let test_block_dev_bounds () =
  let dev = Block_dev.in_memory ~capacity:100 in
  Block_dev.write dev ~offset:90 (Payload.of_string "0123456789");
  Alcotest.check_raises "overflow"
    (Invalid_argument "Block_dev: range [95, 105) exceeds capacity 100") (fun () ->
      ignore (Block_dev.write dev ~offset:95 (Payload.of_string "0123456789")))

let test_block_dev_in_memory () =
  let dev = Block_dev.in_memory ~capacity:100 in
  Block_dev.write dev ~offset:5 (Payload.of_string "xyz");
  Block_dev.flush dev;
  Alcotest.(check string) "read" "xyz" (Payload.to_string (Block_dev.read dev ~offset:5 ~len:3))

(* ------------------------------------------------------------------ *)
(* Test rig with PVFS + BlobSeer + compute nodes *)

type rig = {
  engine : Engine.t;
  net : Net.t;
  fs : Pvfs.t;
  service : Client.t;
  nodes : (Net.host * Disk.t) array; (* compute nodes *)
}

let make_rig ?(nodes = 3) ?(stripe = 1024) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let md_host = Net.add_host net ~name:"pvfs-md" in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let meta = [ Net.add_host net ~name:"meta0" ] in
  let compute =
    Array.init nodes (fun i ->
        ( Net.add_host net ~name:(Fmt.str "node%d" i),
          Disk.create engine ~name:(Fmt.str "nodedisk%d" i) () ))
  in
  let fs =
    Pvfs.deploy engine net
      ~params:{ Pvfs.default_params with stripe_size = stripe }
      ~metadata_host:md_host
      ~io_servers:(Array.to_list compute)
  in
  let service =
    Client.deploy engine net
      ~params:{ Types.default_params with stripe_size = stripe }
      ~version_manager_host:vm_host ~provider_manager_host:pm_host ~metadata_hosts:meta
      ~data_providers:(Array.to_list compute)
  in
  { engine; net; fs; service; nodes = compute }

let run rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Qcow2 *)

let test_qcow2_cow_read_write () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let back, after =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4096
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        let before = Payload.to_string (Qcow2.read q ~offset:0 ~len:8) in
        Qcow2.write q ~offset:100 (Payload.of_string "cowdata!");
        (before, Payload.to_string (Qcow2.read q ~offset:100 ~len:8)))
  in
  Alcotest.(check string) "zeros before" (String.make 8 '\000') back;
  Alcotest.(check string) "data after" "cowdata!" after

let test_qcow2_backing_raw_pvfs () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let through, overlaid =
    run rig (fun () ->
        let base = Pvfs.create rig.fs ~from:host ~path:"/base.raw" in
        Pvfs.write base ~from:host ~offset:0 (Payload.of_string (String.make 4096 'B'));
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4096
            ~backing:(Qcow2.Raw_pvfs base) ~name:"q" ()
        in
        let through = Payload.to_string (Qcow2.read q ~offset:1000 ~len:4) in
        Qcow2.write q ~offset:1000 (Payload.of_string "local");
        (through, Payload.to_string (Qcow2.read q ~offset:998 ~len:9)))
  in
  Alcotest.(check string) "falls through to base" "BBBB" through;
  Alcotest.(check string) "partial COW merges base" "BBlocalBB" overlaid

let test_qcow2_grows_only_on_allocation () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let size0, size1, size2 =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:65536
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        let size0 = Qcow2.file_size q in
        Qcow2.write q ~offset:0 (Payload.pattern ~seed:1L 256);
        let size1 = Qcow2.file_size q in
        Qcow2.write q ~offset:0 (Payload.pattern ~seed:2L 256);
        (size0, size1, Qcow2.file_size q))
  in
  Alcotest.(check int) "one cluster" (size0 + 256) size1;
  Alcotest.(check int) "overwrite in place" size1 size2

let test_qcow2_savevm_freezes_clusters () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let size_before, size_after_snap, size_after_write, names =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:65536
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        Qcow2.write q ~offset:0 (Payload.pattern ~seed:1L 256);
        let size_before = Qcow2.file_size q in
        Qcow2.savevm q ~snapshot_name:"s1" ~vm_state:(Payload.pattern ~seed:9L 1000);
        let size_after_snap = Qcow2.file_size q in
        (* Writing a frozen cluster must allocate a new one. *)
        Qcow2.write q ~offset:0 (Payload.pattern ~seed:2L 256);
        (size_before, size_after_snap, Qcow2.file_size q, Qcow2.snapshot_names q))
  in
  Alcotest.(check bool) "snapshot adds vm state" true (size_after_snap >= size_before + 1000);
  Alcotest.(check int) "COW after snapshot" (size_after_snap + 256) size_after_write;
  Alcotest.(check (list string)) "names" [ "s1" ] names

let test_qcow2_export_and_remote_backing () =
  let rig = make_rig () in
  let host0, disk0 = rig.nodes.(0) in
  let host1, disk1 = rig.nodes.(1) in
  let restored =
    run rig (fun () ->
        let base = Pvfs.create rig.fs ~from:host0 ~path:"/base.raw" in
        Pvfs.write base ~from:host0 ~offset:0 (Payload.of_string (String.make 4096 'B'));
        let q =
          Qcow2.create rig.engine ~host:host0 ~local_disk:disk0 ~cluster_size:256
            ~capacity:4096 ~backing:(Qcow2.Raw_pvfs base) ~name:"q0" ()
        in
        Qcow2.write q ~offset:512 (Payload.of_string (String.make 256 'L'));
        (* Take a disk snapshot: copy the image to PVFS. *)
        let remote = Qcow2.export q rig.fs ~from:host0 ~path:"/snap/q0" in
        (* Redeploy on another node, backed by the snapshot. *)
        let q' =
          Qcow2.create rig.engine ~host:host1 ~local_disk:disk1 ~cluster_size:256
            ~capacity:4096 ~backing:(Qcow2.Qcow2_remote remote) ~name:"q1" ()
        in
        Payload.to_string (Qcow2.read q' ~offset:500 ~len:300))
  in
  let expected = String.make 12 'B' ^ String.make 256 'L' ^ String.make 32 'B' in
  Alcotest.(check string) "snapshot content via chain" expected restored

let test_qcow2_export_vm_state_roundtrip () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let state =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4096
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        Qcow2.write q ~offset:0 (Payload.of_string (String.make 256 'd'));
        Qcow2.savevm q ~snapshot_name:"full" ~vm_state:(Payload.of_string "RAMSTATE");
        let remote = Qcow2.export q rig.fs ~from:host ~path:"/snap/full" in
        Payload.to_string
          (Qcow2.remote_vm_state_streamed remote ~from:host ~snapshot_name:"full" ~record:3))
  in
  Alcotest.(check string) "vm state preserved" "RAMSTATE" state

let test_qcow2_snapshot_table_view () =
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let host1, disk1 = rig.nodes.(1) in
  let at_snapshot =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4096
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        Qcow2.write q ~offset:0 (Payload.of_string (String.make 256 'x'));
        Qcow2.savevm q ~snapshot_name:"s" ~vm_state:(Payload.zero 10);
        Qcow2.write q ~offset:0 (Payload.of_string (String.make 256 'y'));
        let remote = Qcow2.export q rig.fs ~from:host ~path:"/snap/v" in
        let view = Qcow2.remote_table_of_snapshot remote ~snapshot_name:"s" in
        let q' =
          Qcow2.create rig.engine ~host:host1 ~local_disk:disk1 ~cluster_size:256
            ~capacity:4096 ~backing:(Qcow2.Qcow2_remote view) ~name:"q1" ()
        in
        Payload.to_string (Qcow2.read q' ~offset:0 ~len:4))
  in
  Alcotest.(check string) "pre-snapshot content" "xxxx" at_snapshot

(* ------------------------------------------------------------------ *)
(* Prefetch *)

let test_prefetch_coalesces_concurrent_fetches () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 0.0 } in
  let provider = Net.add_host net ~name:"provider" in
  let clients = List.init 4 (fun i -> Net.add_host net ~name:(Fmt.str "c%d" i)) in
  let prefetch = Prefetch.create engine net () in
  let real_fetches = ref 0 in
  List.iter
    (fun self ->
      ignore
        (Engine.Fiber.spawn engine (fun () ->
             let p =
               Prefetch.fetch prefetch ~self ~key:(0, 7) ~provider_host:provider
                 ~fetch_fn:(fun () ->
                   incr real_fetches;
                   Engine.sleep engine 0.5;
                   Payload.of_string "chunk")
             in
             assert (Payload.to_string p = "chunk"))))
    clients;
  Engine.run engine;
  Alcotest.(check int) "single real fetch" 1 !real_fetches;
  Alcotest.(check int) "distinct" 1 (Prefetch.distinct_fetches prefetch);
  Alcotest.(check int) "coalesced" 3 (Prefetch.coalesced_fetches prefetch)

let test_prefetch_late_fetch_served_cached () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 0.0 } in
  let provider = Net.add_host net ~name:"provider" in
  let a = Net.add_host net ~name:"a" and b = Net.add_host net ~name:"b" in
  let prefetch = Prefetch.create engine net () in
  let fetches = ref 0 in
  let fetch self delay =
    ignore
      (Engine.Fiber.spawn engine (fun () ->
           Engine.sleep engine delay;
           ignore
             (Prefetch.fetch prefetch ~self ~key:(1, 1) ~provider_host:provider
                ~fetch_fn:(fun () ->
                  incr fetches;
                  Payload.of_string "x"))))
  in
  fetch a 0.0;
  fetch b 10.0;
  Engine.run engine;
  Alcotest.(check int) "one real fetch" 1 !fetches

let test_prefetch_failed_fetch_retried_by_waiter () =
  (* The fetching instance dies mid-read: its waiters must not be stuck
     with the failure — the entry is dropped and the first waiter redoes
     the fetch itself. *)
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 0.0 } in
  let provider = Net.add_host net ~name:"provider" in
  let a = Net.add_host net ~name:"a" and b = Net.add_host net ~name:"b" in
  let prefetch = Prefetch.create engine net () in
  let attempts = ref 0 in
  let fetch_fn () =
    incr attempts;
    Engine.sleep engine 0.5;
    if !attempts = 1 then raise (Faults.Injected_error "fetcher died");
    Payload.of_string "chunk"
  in
  let first_failed = ref false and waiter_got = ref "" in
  ignore
    (Engine.Fiber.spawn engine (fun () ->
         try ignore (Prefetch.fetch prefetch ~self:a ~key:(0, 9) ~provider_host:provider ~fetch_fn)
         with Faults.Injected_error _ -> first_failed := true));
  ignore
    (Engine.Fiber.spawn engine (fun () ->
         Engine.sleep engine 0.1;
         let p = Prefetch.fetch prefetch ~self:b ~key:(0, 9) ~provider_host:provider ~fetch_fn in
         waiter_got := Payload.to_string p));
  Engine.run engine;
  Alcotest.(check bool) "original fetcher saw the error" true !first_failed;
  Alcotest.(check string) "waiter retried and succeeded" "chunk" !waiter_got;
  Alcotest.(check int) "two real attempts" 2 !attempts;
  Alcotest.(check int) "both counted as distinct fetches" 2
    (Prefetch.distinct_fetches prefetch)

let test_prefetch_failed_entry_removed_for_late_callers () =
  (* A failure with no waiters leaves no poisoned cache entry behind: a
     later caller starts a fresh fetch. *)
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 0.0 } in
  let provider = Net.add_host net ~name:"provider" in
  let a = Net.add_host net ~name:"a" in
  let prefetch = Prefetch.create engine net () in
  let attempts = ref 0 in
  let fetch_fn () =
    incr attempts;
    if !attempts = 1 then raise (Faults.Injected_error "fetcher died");
    Payload.of_string "fresh"
  in
  let got = ref "" in
  ignore
    (Engine.Fiber.spawn engine (fun () ->
         (try
            ignore
              (Prefetch.fetch prefetch ~self:a ~key:(2, 2) ~provider_host:provider ~fetch_fn)
          with Faults.Injected_error _ -> ());
         Engine.sleep engine 1.0;
         let p = Prefetch.fetch prefetch ~self:a ~key:(2, 2) ~provider_host:provider ~fetch_fn in
         got := Payload.to_string p));
  Engine.run engine;
  Alcotest.(check string) "second call refetches" "fresh" !got;
  Alcotest.(check int) "fresh fetch after failure" 2 !attempts

(* ------------------------------------------------------------------ *)
(* Mirror *)

let setup_base rig ~content =
  let client_host, _ = rig.nodes.(0) in
  let base = Client.create_blob rig.service ~from:client_host ~capacity:(String.length content) in
  let v = Client.write base ~from:client_host ~offset:0 (Payload.of_string content) in
  (base, v)

let test_mirror_reads_base_lazily () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let first, cached =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 2048 'Z') in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        let first = Payload.to_string (Block_dev.read (Mirror.device m) ~offset:100 ~len:4) in
        (first, List.length (Mirror.snapshot m).Mirror.present))
  in
  Alcotest.(check string) "base content" "ZZZZ" first;
  Alcotest.(check int) "only touched chunk cached" 1 cached

let test_mirror_write_is_local_cow () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let repo_before, repo_after, dirty =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 2048 'Z') in
        let repo_before = Client.repository_bytes rig.service in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        Mirror.write m ~offset:0 (Payload.of_string (String.make 512 'w'));
        (repo_before, Client.repository_bytes rig.service, Mirror.dirty_bytes m))
  in
  Alcotest.(check int) "repository untouched by guest writes" repo_before repo_after;
  Alcotest.(check int) "two dirty chunks" 512 dirty

let test_mirror_commit_publishes_incremental () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let committed, repo_growth, dirty_after =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 2048 'Z') in
        let repo0 = Client.repository_bytes rig.service in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        Mirror.write m ~offset:256 (Payload.of_string (String.make 256 'w'));
        let version = Mirror.commit m in
        let ckpt = Option.get (Mirror.checkpoint_image m) in
        let committed =
          Payload.to_string
            (Client.read ckpt ~from:host ~version ~offset:200 ~len:112)
        in
        (committed, Client.repository_bytes rig.service - repo0, Mirror.dirty_bytes m))
  in
  Alcotest.(check string) "ckpt image = base + diff"
    (String.make 56 'Z' ^ String.make 56 'w')
    committed;
  Alcotest.(check int) "repository grew by diff only" 256 repo_growth;
  Alcotest.(check int) "dirty cleared" 0 dirty_after

let test_mirror_successive_commits_are_incremental () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let growths =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 4096 'Z') in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        List.map
          (fun round ->
            let before = Client.repository_bytes rig.service in
            (* Distinct content per round: identical chunks would dedup
               instead of growing the repository. *)
            Mirror.write m ~offset:(round * 256)
              (Payload.of_string (String.make 256 (Char.chr (Char.code 'w' + round))));
            let _ = Mirror.commit m in
            Client.repository_bytes rig.service - before)
          [ 0; 1; 2 ])
  in
  Alcotest.(check (list int)) "constant per-commit growth" [ 256; 256; 256 ] growths

let test_mirror_commit_without_dirty_publishes_empty () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let v1, v2 =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 1024 'Z') in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        let v1 = Mirror.commit m in
        (v1, Mirror.commit m))
  in
  Alcotest.(check int) "first" 1 v1;
  Alcotest.(check int) "second" 2 v2

let test_mirror_rollback_via_new_mirror () =
  (* The headline feature: file-system changes after a checkpoint are
     rolled back by re-mirroring the snapshot version. *)
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let host2, disk2 = rig.nodes.(2) in
  let restored =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 1024 'Z') in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'G'));
        let good = Mirror.commit m in
        (* Post-checkpoint corruption that must disappear on rollback. *)
        Mirror.write m ~offset:0 (Payload.of_string (String.make 512 '!'));
        let ckpt = Option.get (Mirror.checkpoint_image m) in
        let m' =
          Mirror.create rig.engine ~host:host2 ~local_disk:disk2 ~base:ckpt
            ~base_version:good ~name:"m'" ()
        in
        Payload.to_string (Block_dev.read (Mirror.device m') ~offset:0 ~len:512))
  in
  Alcotest.(check string) "rolled back" (String.make 256 'G' ^ String.make 256 'Z') restored

let test_mirror_shared_chunks_prefetched_once () =
  let rig = make_rig ~stripe:256 () in
  let prefetch = Prefetch.create rig.engine rig.net () in
  let distinct, coalesced =
    run rig (fun () ->
        (* Per-chunk-distinct base content: identical chunks would dedup
           into one stored copy and collapse the fetch counts. *)
        let base, v =
          setup_base rig ~content:(String.init 1024 (fun i -> Char.chr (i mod 251)))
        in
        (* Two instances on different nodes mirror the same snapshot and
           read the same range concurrently. *)
        let mk i =
          let host, disk = rig.nodes.(i) in
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~prefetch
            ~name:(Fmt.str "m%d" i) ()
        in
        let m1 = mk 1 and m2 = mk 2 in
        Engine.all rig.engine
          [
            (fun () -> ignore (Block_dev.read (Mirror.device m1) ~offset:0 ~len:1024));
            (fun () -> ignore (Block_dev.read (Mirror.device m2) ~offset:0 ~len:1024));
          ];
        (Prefetch.distinct_fetches prefetch, Prefetch.coalesced_fetches prefetch))
  in
  Alcotest.(check int) "each chunk fetched once" 4 distinct;
  Alcotest.(check int) "other instance coalesced" 4 coalesced

let test_mirror_local_footprint_and_drop () =
  let rig = make_rig ~stripe:256 () in
  let host, disk = rig.nodes.(1) in
  let during, after =
    run rig (fun () ->
        let base, v = setup_base rig ~content:(String.make 1024 'Z') in
        let m =
          Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        ignore (Block_dev.read (Mirror.device m) ~offset:0 ~len:512);
        Mirror.write m ~offset:512 (Payload.of_string (String.make 256 'w'));
        let during = (Mirror.snapshot m).Mirror.local_bytes in
        Mirror.drop_local_state m;
        (during, (Mirror.snapshot m).Mirror.local_bytes))
  in
  Alcotest.(check int) "cache + cow" 768 during;
  Alcotest.(check int) "released" 0 after

(* An append-only guest log on a BlobCR mirror, like CM1's summary files:
   each round appends four 16 KiB records, syncs (which re-emits every
   extent of the file as a partial-chunk write) and commits. The modelled
   digest work per round is pinned. *)
let log_rounds ~rounds =
  let record = 16 * Size.kib and chunk = 256 * Size.kib in
  let rig = make_rig ~stripe:chunk () in
  let host, disk = rig.nodes.(1) in
  run rig (fun () ->
      let base = Client.create_blob rig.service ~from:host ~capacity:(Size.mib_n 8) in
      let v = Client.write base ~from:host ~offset:0 (Payload.zero (Size.mib_n 8)) in
      let m = Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" () in
      let fs = Vmsim.Guest_fs.format (Mirror.device m) in
      let log = Payload.pattern ~seed:0x106L (Size.mib_n 4) in
      List.init rounds (fun r ->
          let hashed = Payload.hashed_bytes () in
          for i = 0 to 3 do
            Vmsim.Guest_fs.append_file fs ~path:"/log"
              (Payload.sub log ~pos:(((4 * r) + i) * record) ~len:record)
          done;
          Vmsim.Guest_fs.sync fs;
          ignore (Mirror.commit m);
          Payload.hashed_bytes () - hashed))

let test_mirror_log_rounds_history_independent () =
  (* Every round re-digests the whole log (all of it is rewritten) plus the
     file-system metadata. *)
  Alcotest.(check (list int)) "hashed bytes per round"
    [ 65613; 131161; 196709; 262257; 327805; 393353; 458901; 524449; 589997; 655545; 721093;
      786641 ]
    (log_rounds ~rounds:12)

(* Differential test of the mirror's per-chunk state against a reference
   model kept in plain lists: after every step each view must equal the
   model and be strictly ascending. The model follows the documented
   rules: a fetch caches the base chunk with its digest, a full-chunk
   write with a digest equal to the cached one is absorbed, any other
   write dirties the chunk (a partial one drops its digest), the first
   write to a frozen-pending chunk copies it into the diff log, and a
   frozen commit re-seeds the digests of chunks it did not copy. *)

type mirror_op =
  | Full of int * char (* chunk, byte *)
  | Partial of int * int * char (* offset, length, byte *)
  | Read of int * int (* offset, length *)
  | Freeze
  | Commit_frozen
  | Abort_frozen
  | Commit
  | Taint_all
  | Drop

let pp_mirror_op = function
  | Full (c, ch) -> Printf.sprintf "full %d %C" c ch
  | Partial (o, l, ch) -> Printf.sprintf "partial %d+%d %C" o l ch
  | Read (o, l) -> Printf.sprintf "read %d+%d" o l
  | Freeze -> "freeze"
  | Commit_frozen -> "commit-frozen"
  | Abort_frozen -> "abort-frozen"
  | Commit -> "commit"
  | Taint_all -> "taint-all"
  | Drop -> "drop"

type model = {
  mutable present : int list;
  mutable dirty : int list;
  mutable digests : (int * int64) list;
  mutable frozen : (int list * int list * (int * int64) list) option;
      (* pending, copied, frozen digests *)
  content : Bytes.t; (* the image as the guest sees it *)
}

let prop_mirror_state_matches_model =
  let cs = 256 and capacity = 2000 in
  let chunks = Size.div_ceil capacity cs in
  let extent c = min capacity ((c + 1) * cs) - (c * cs) in
  let base = String.init capacity (fun i -> Char.chr (Char.code 'A' + (i / cs))) in
  let gen =
    QCheck.Gen.(
      let byte = oneofl [ 'a'; 'b' ] in
      let range =
        let* offset = int_range 0 (capacity - 1) in
        let* len = int_range 1 (min 600 (capacity - offset)) in
        return (offset, len)
      in
      list_size (int_range 1 25)
        (frequency
           [
             (4, map2 (fun c ch -> Full (c, ch)) (int_range 0 (chunks - 1)) byte);
             (3, map2 (fun (o, l) ch -> Partial (o, l, ch)) range byte);
             (2, map (fun (o, l) -> Read (o, l)) range);
             (2, return Freeze);
             (2, return Commit_frozen);
             (1, return Abort_frozen);
             (1, return Commit);
             (1, return Taint_all);
             (1, return Drop);
           ]))
  in
  let digest_of bytes c = Payload.digest (Payload.of_string (Bytes.sub_string bytes (c * cs) (extent c))) in
  let add x l = List.sort_uniq compare (x :: l) in
  let union a b = List.sort_uniq compare (a @ b) in
  let set_digest c d l = List.sort compare ((c, d) :: List.remove_assoc c l) in
  QCheck.Test.make ~name:"mirror state matches model" ~count:60
    (QCheck.make ~print:(QCheck.Print.list pp_mirror_op) gen)
    (fun ops ->
      let rig = make_rig ~stripe:cs () in
      let host, disk = rig.nodes.(1) in
      let failure =
        run rig (fun () ->
            let base_blob, v = setup_base rig ~content:base in
            let m =
              Mirror.create rig.engine ~host ~local_disk:disk ~base:base_blob ~base_version:v
                ~name:"m" ()
            in
            let md =
              { present = []; dirty = []; digests = []; frozen = None;
                content = Bytes.of_string base }
            in
            let fetch c =
              if not (List.mem c md.present) then begin
                md.present <- add c md.present;
                md.digests <- set_digest c (digest_of md.content c) md.digests
              end
            in
            let preserve c =
              match md.frozen with
              | Some (pending, copied, fd) when List.mem c pending ->
                  md.frozen <- Some (pending, add c copied, fd)
              | _ -> ()
            in
            let write offset len ch =
              for c = offset / cs to (offset + len - 1) / cs do
                let wstart = max (c * cs) offset
                and wend = min ((c * cs) + extent c) (offset + len) in
                if wend - wstart = extent c then begin
                  let d = Payload.digest (Payload.of_string (String.make (extent c) ch)) in
                  if List.assoc_opt c md.digests <> Some d then begin
                    md.present <- add c md.present;
                    preserve c;
                    md.dirty <- add c md.dirty;
                    md.digests <- set_digest c d md.digests
                  end
                end
                else begin
                  fetch c;
                  preserve c;
                  md.dirty <- add c md.dirty;
                  md.digests <- List.remove_assoc c md.digests
                end;
                Bytes.fill md.content wstart (wend - wstart) ch
              done;
              Mirror.write m ~offset (Payload.of_string (String.make len ch))
            in
            let freeze () =
              md.frozen <-
                Some (md.dirty, [], List.filter (fun (c, _) -> List.mem c md.dirty) md.digests);
              md.dirty <- [];
              Mirror.freeze m
            in
            let commit_frozen () =
              (match md.frozen with
              | Some (pending, copied, _) ->
                  List.iter
                    (fun c ->
                      if not (List.mem c copied || List.mem_assoc c md.digests) then
                        md.digests <- set_digest c (digest_of md.content c) md.digests)
                    pending
              | None -> ());
              md.frozen <- None;
              ignore (Mirror.commit_frozen m)
            in
            let abort_frozen () =
              (match md.frozen with
              | Some (pending, _, _) -> md.dirty <- union pending md.dirty
              | None -> ());
              md.frozen <- None;
              Mirror.abort_frozen m
            in
            let step = function
              | Full (c, ch) -> write (c * cs) (extent c) ch
              | Partial (offset, len, ch) -> write offset len ch
              | Read (offset, len) ->
                  for c = offset / cs to (offset + len - 1) / cs do
                    fetch c
                  done;
                  let got =
                    Payload.to_string (Block_dev.read (Mirror.device m) ~offset ~len)
                  in
                  if got <> Bytes.sub_string md.content offset len then failwith "read content"
              | Freeze -> if md.frozen = None then freeze ()
              | Commit_frozen -> if md.frozen <> None then commit_frozen ()
              | Abort_frozen -> abort_frozen ()
              | Commit ->
                  if md.frozen = None then begin
                    freeze ();
                    commit_frozen ()
                  end
              | Taint_all ->
                  md.dirty <- union md.present md.dirty;
                  md.digests <- [];
                  Mirror.taint_all m
              | Drop ->
                  md.present <- [];
                  md.dirty <- [];
                  md.digests <- [];
                  md.frozen <- None;
                  Bytes.blit_string base 0 md.content 0 capacity;
                  Mirror.drop_local_state m
            in
            let rec ascending = function
              | a :: (b :: _ as rest) -> a < b && ascending rest
              | _ -> true
            in
            let agree name view expected =
              if not (ascending (List.map fst view)) then failwith (name ^ " not ascending");
              if view <> expected then failwith (name ^ " differs from the model")
            in
            let keyed l = List.map (fun c -> (c, ())) l in
            let check () =
              let pending, copied, fd =
                match md.frozen with Some f -> f | None -> ([], [], [])
              in
              let s = Mirror.snapshot m in
              agree "present" (keyed s.Mirror.present) (keyed md.present);
              agree "dirty" (keyed s.Mirror.dirty) (keyed md.dirty);
              agree "digests" s.Mirror.digests md.digests;
              agree "frozen_pending" (keyed s.Mirror.frozen_pending) (keyed pending);
              agree "frozen_copied" (keyed s.Mirror.frozen_copied) (keyed copied);
              agree "frozen_digests" s.Mirror.frozen_digests fd;
              if Mirror.frozen_active m <> (md.frozen <> None) then failwith "frozen_active";
              if Mirror.dirty_bytes m <> List.fold_left (fun acc c -> acc + extent c) 0 md.dirty
              then failwith "dirty_bytes"
            in
            let result =
              List.fold_left
                (fun failure op ->
                  match failure with
                  | Some _ -> failure
                  | None -> (
                      match
                        step op;
                        check ()
                      with
                      | () -> None
                      | exception Failure msg -> Some (pp_mirror_op op ^ ": " ^ msg)))
                None ops
            in
            (* No frozen epoch may outlive the run: the teardown audit
               reports one as never resolved. *)
            Mirror.abort_frozen m;
            result)
      in
      match failure with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Invariants: each structure's audit catches a seeded defect *)

(* Tests that seed corruption and audit by hand must not also trip the
   teardown audit (armed suite-wide via BLOBCR_AUDIT=1 in test/dune). *)
let without_teardown_audits f =
  let was = Engine.audits_enabled () in
  Engine.set_audits_enabled false;
  Fun.protect ~finally:(fun () -> Engine.set_audits_enabled was) f

let invariants violations = List.map (fun (v : Engine.violation) -> v.invariant) violations

(* The teardown audit's findings for one structure, run now. *)
let audit_of engine subject =
  List.filter (fun (v : Engine.violation) -> v.subject = subject) (Engine.audit engine)

let test_qcow2_audit_catches_refcount_corruption () =
  without_teardown_audits @@ fun () ->
  let rig = make_rig () in
  let host, disk = rig.nodes.(0) in
  let clean, corrupted =
    run rig (fun () ->
        let q =
          Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4096
            ~backing:Qcow2.No_backing ~name:"q" ()
        in
        Qcow2.write q ~offset:0 (Payload.of_string (String.make 512 'a'));
        Qcow2.savevm q ~snapshot_name:"s1" ~vm_state:(Payload.of_string "vm");
        Qcow2.write q ~offset:0 (Payload.of_string (String.make 256 'b'));
        let clean = audit_of rig.engine "qcow2:q" in
        Qcow2.unsafe_set_refcount q ~phys:0 7;
        (clean, audit_of rig.engine "qcow2:q"))
  in
  Alcotest.(check (list string)) "clean image audits clean" [] (invariants clean);
  Alcotest.(check bool) "corrupted refcount caught" true
    (List.mem "refcount" (invariants corrupted))

let test_mirror_audit_catches_uncached_dirty () =
  without_teardown_audits @@ fun () ->
  let rig = make_rig ~stripe:256 () in
  let clean, corrupted =
    run rig (fun () ->
        let host, disk = rig.nodes.(1) in
        let client_host, _ = rig.nodes.(0) in
        let base = Client.create_blob rig.service ~from:client_host ~capacity:2048 in
        let v =
          Client.write base ~from:client_host ~offset:0 (Payload.of_string (String.make 2048 'Z'))
        in
        let m = Mirror.create rig.engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" () in
        Mirror.write m ~offset:0 (Payload.of_string (String.make 256 'w'));
        let clean = audit_of rig.engine "mirror:m" in
        Mirror.unsafe_mark_dirty m ~chunk:7;
        (clean, audit_of rig.engine "mirror:m"))
  in
  Alcotest.(check (list string)) "clean mirror audits clean" [] (invariants clean);
  Alcotest.(check bool) "dirty-not-present caught" true
    (List.mem "dirty-subset-present" (invariants corrupted))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "vdisk"
    [
      ( "invariants",
        [
          Alcotest.test_case "qcow2 refcount corruption caught" `Quick
            test_qcow2_audit_catches_refcount_corruption;
          Alcotest.test_case "mirror dirty-not-present caught" `Quick
            test_mirror_audit_catches_uncached_dirty;
        ] );
      ( "sparse_bytes",
        [
          Alcotest.test_case "roundtrip" `Quick test_sparse_bytes_roundtrip;
          Alcotest.test_case "overwrite" `Quick test_sparse_bytes_overwrite;
        ]
        @ qsuite [ prop_sparse_bytes_matches_reference ] );
      ( "block_dev",
        [
          Alcotest.test_case "bounds" `Quick test_block_dev_bounds;
          Alcotest.test_case "in-memory" `Quick test_block_dev_in_memory;
        ] );
      ( "qcow2",
        [
          Alcotest.test_case "COW read/write" `Quick test_qcow2_cow_read_write;
          Alcotest.test_case "raw PVFS backing" `Quick test_qcow2_backing_raw_pvfs;
          Alcotest.test_case "grows only on allocation" `Quick
            test_qcow2_grows_only_on_allocation;
          Alcotest.test_case "savevm freezes clusters" `Quick test_qcow2_savevm_freezes_clusters;
          Alcotest.test_case "export + remote backing" `Quick
            test_qcow2_export_and_remote_backing;
          Alcotest.test_case "vm state roundtrip" `Quick test_qcow2_export_vm_state_roundtrip;
          Alcotest.test_case "snapshot table view" `Quick test_qcow2_snapshot_table_view;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "coalesces concurrent fetches" `Quick
            test_prefetch_coalesces_concurrent_fetches;
          Alcotest.test_case "late fetch served cached" `Quick
            test_prefetch_late_fetch_served_cached;
          Alcotest.test_case "failed fetch retried by waiter" `Quick
            test_prefetch_failed_fetch_retried_by_waiter;
          Alcotest.test_case "failed entry removed for late callers" `Quick
            test_prefetch_failed_entry_removed_for_late_callers;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "lazy base reads" `Quick test_mirror_reads_base_lazily;
          Alcotest.test_case "writes are local COW" `Quick test_mirror_write_is_local_cow;
          Alcotest.test_case "commit publishes incremental" `Quick
            test_mirror_commit_publishes_incremental;
          Alcotest.test_case "successive commits incremental" `Quick
            test_mirror_successive_commits_are_incremental;
          Alcotest.test_case "empty commit still publishes" `Quick
            test_mirror_commit_without_dirty_publishes_empty;
          Alcotest.test_case "rollback via new mirror" `Quick test_mirror_rollback_via_new_mirror;
          Alcotest.test_case "shared chunks prefetched once" `Quick
            test_mirror_shared_chunks_prefetched_once;
          Alcotest.test_case "local footprint and drop" `Quick
            test_mirror_local_footprint_and_drop;
          Alcotest.test_case "log rounds independent of history" `Quick
            test_mirror_log_rounds_history_independent;
        ]
        @ qsuite [ prop_mirror_state_matches_model ] );
    ]
