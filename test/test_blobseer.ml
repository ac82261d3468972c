(* Tests for the BlobSeer versioning store: segment trees, data providers,
   the client API (write/read/clone/versioning), shadowing, replication and
   failure behaviour. *)

open Simcore
open Netsim
open Storage
open Blobseer

(* ------------------------------------------------------------------ *)
(* Segment_tree (pure data structure) *)

let leaves_list tree =
  Segment_tree.fold_set (fun i v acc -> (i, v) :: acc) tree [] |> List.rev

let test_tree_empty () =
  let t = Segment_tree.create ~chunks:10 in
  Alcotest.(check int) "chunks" 10 (Segment_tree.chunks t);
  Alcotest.(check (option int)) "empty leaf" None (Segment_tree.get t 3);
  Alcotest.(check int) "no nodes" 0 (Segment_tree.live_nodes t);
  Alcotest.(check (list (pair int int))) "fold empty" [] (leaves_list t)

let test_tree_set_get () =
  let t = Segment_tree.create ~chunks:8 in
  let t1, created = Segment_tree.set_range t ~start:2 [| Some 20; Some 30 |] in
  Alcotest.(check bool) "nodes created" true (created > 0);
  Alcotest.(check (option int)) "set" (Some 20) (Segment_tree.get t1 2);
  Alcotest.(check (option int)) "set" (Some 30) (Segment_tree.get t1 3);
  Alcotest.(check (option int)) "unset" None (Segment_tree.get t1 0);
  Alcotest.(check (option int)) "original untouched" None (Segment_tree.get t 2)

let test_tree_non_pow2 () =
  let t = Segment_tree.create ~chunks:5 in
  let t1, _ = Segment_tree.set_range t ~start:4 [| Some 1 |] in
  Alcotest.(check (option int)) "last chunk" (Some 1) (Segment_tree.get t1 4);
  Alcotest.check_raises "out of range" (Invalid_argument "Segment_tree.get: index out of range")
    (fun () -> ignore (Segment_tree.get t1 5))

let test_tree_shadowing_shares_structure () =
  let t = Segment_tree.create ~chunks:1024 in
  let full = Array.init 1024 (fun i -> Some i) in
  let v1, _ = Segment_tree.set_range t ~start:0 full in
  let v2, created = Segment_tree.set_range v1 ~start:17 [| Some (-1) |] in
  (* Updating one leaf touches only the path to the root. *)
  Alcotest.(check bool) "logarithmic update" true (created <= 11 + 1);
  let shared = Segment_tree.shared_nodes v1 v2 in
  let v1_nodes = Segment_tree.live_nodes v1 in
  Alcotest.(check bool)
    (Fmt.str "massive sharing (%d shared of %d)" shared v1_nodes)
    true
    (shared > v1_nodes - 15);
  Alcotest.(check (option int)) "old version intact" (Some 17) (Segment_tree.get v1 17);
  Alcotest.(check (option int)) "new version updated" (Some (-1)) (Segment_tree.get v2 17)

let test_tree_unset_leaf () =
  let t = Segment_tree.create ~chunks:4 in
  let t1, _ = Segment_tree.set_range t ~start:0 [| Some 1; Some 2 |] in
  let t2, _ = Segment_tree.set_range t1 ~start:1 [| None |] in
  Alcotest.(check (option int)) "punched" None (Segment_tree.get t2 1);
  Alcotest.(check (option int)) "neighbour kept" (Some 1) (Segment_tree.get t2 0)

let test_tree_noop_set_shares_all () =
  let t = Segment_tree.create ~chunks:16 in
  let t1, created = Segment_tree.set_range t ~start:0 [||] in
  Alcotest.(check int) "no nodes" 0 created;
  Alcotest.(check bool) "same root" true (Segment_tree.shared_nodes t t1 = 0)

let test_tree_diff_leaves () =
  let t = Segment_tree.create ~chunks:64 in
  let v1, _ = Segment_tree.set_range t ~start:0 (Array.init 64 (fun i -> Some i)) in
  let v2, _ = Segment_tree.set_range v1 ~start:10 [| Some 100; Some 11; Some 120 |] in
  Alcotest.(check (list (triple int (option int) (option int))))
    "changed leaves"
    [ (10, Some 10, Some 100); (12, Some 12, Some 120) ]
    (Segment_tree.diff_leaves v1 v2)

let test_tree_zero_length_write () =
  let t = Segment_tree.create ~chunks:6 in
  let t1, _ = Segment_tree.set_range t ~start:1 [| Some 10 |] in
  (* Zero-length writes are no-ops at any in-range start, including one
     past the last leaf, and allocate nothing. *)
  List.iter
    (fun start ->
      let t2, created = Segment_tree.set_range t1 ~start [||] in
      Alcotest.(check int) (Fmt.str "no nodes at %d" start) 0 created;
      Alcotest.(check (list (pair int int)))
        (Fmt.str "identical leaves at %d" start)
        (leaves_list t1) (leaves_list t2))
    [ 0; 3; 6 ];
  Alcotest.check_raises "zero-length write past EOF rejected"
    (Invalid_argument "Segment_tree.set_range") (fun () ->
      ignore (Segment_tree.set_range t1 ~start:7 [||]))

let test_tree_write_straddles_subtree_boundary () =
  (* chunks = 8: the root splits at leaf 4; a write covering [3..6) crosses
     it and must rebuild paths in both halves while leaving the outer
     leaves shared with the old version. *)
  let t = Segment_tree.create ~chunks:8 in
  let v1, _ = Segment_tree.set_range t ~start:0 (Array.init 8 (fun i -> Some i)) in
  let v2, _ = Segment_tree.set_range v1 ~start:3 [| Some 30; Some 40; Some 50 |] in
  Alcotest.(check (array (option int)))
    "straddling write applied"
    [| Some 0; Some 1; Some 2; Some 30; Some 40; Some 50; Some 6; Some 7 |]
    (Array.init 8 (Segment_tree.get v2));
  Alcotest.(check (array (option int)))
    "old version immutable"
    (Array.init 8 (fun i -> Some i))
    (Array.init 8 (Segment_tree.get v1));
  Alcotest.(check (list (triple int (option int) (option int))))
    "diff sees exactly the straddling range"
    [ (3, Some 3, Some 30); (4, Some 4, Some 40); (5, Some 5, Some 50) ]
    (Segment_tree.diff_leaves v1 v2);
  Alcotest.(check bool) "untouched subtrees shared" true
    (Segment_tree.shared_nodes v1 v2 > 0)

let test_tree_lookup_past_eof () =
  (* A non-power-of-two tree pads its space internally; lookups must still
     be bounded by the declared chunk count, not the padded one. *)
  let t = Segment_tree.create ~chunks:5 in
  let t1, _ = Segment_tree.set_range t ~start:0 (Array.make 5 (Some 1)) in
  Alcotest.check_raises "get past EOF" (Invalid_argument "Segment_tree.get: index out of range")
    (fun () -> ignore (Segment_tree.get t1 5));
  Alcotest.check_raises "get far past EOF"
    (Invalid_argument "Segment_tree.get: index out of range") (fun () ->
      ignore (Segment_tree.get t1 7));
  Alcotest.check_raises "set_range past EOF" (Invalid_argument "Segment_tree.set_range")
    (fun () -> ignore (Segment_tree.set_range t1 ~start:4 [| Some 9; Some 9 |]))

(* Property: a segment tree behaves like an array, and old versions are
   immutable under any sequence of range updates. *)
let prop_tree_matches_array =
  let gen =
    QCheck.Gen.(
      let* chunks = int_range 1 40 in
      let* ops =
        list_size (int_range 1 15)
          (let* start = int_range 0 (chunks - 1) in
           let* len = int_range 1 (chunks - start) in
           let* values = list_size (return len) (option (int_range 0 1000)) in
           return (start, Array.of_list values))
      in
      return (chunks, ops))
  in
  QCheck.Test.make ~name:"segment tree matches reference array; versions immutable"
    ~count:300
    (QCheck.make gen)
    (fun (chunks, ops) ->
      let reference = Array.make chunks None in
      let history = ref [] in
      let tree = ref (Segment_tree.create ~chunks) in
      List.for_all
        (fun (start, values) ->
          (* Snapshot current state for immutability checking. *)
          history := (!tree, Array.copy reference) :: !history;
          let t', _ = Segment_tree.set_range !tree ~start values in
          tree := t';
          Array.iteri (fun k v -> reference.(start + k) <- v) values;
          let current_ok =
            List.for_all
              (fun i -> Segment_tree.get !tree i = reference.(i))
              (List.init chunks Fun.id)
          in
          let old_ok =
            List.for_all
              (fun (old_tree, old_ref) ->
                List.for_all
                  (fun i -> Segment_tree.get old_tree i = old_ref.(i))
                  (List.init chunks Fun.id))
              !history
          in
          current_ok && old_ok)
        ops)

(* ------------------------------------------------------------------ *)
(* Deployment helper *)

type rig = {
  engine : Engine.t;
  net : Net.t;
  service : Client.t;
  client_host : Net.host;
}

let make_rig ?(providers = 4) ?(replication = 1) ?(stripe = 1024) () =
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
  { engine; net; service; client_host }

let run_rig rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine ~name:"test-main" (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

let payload_str = Payload.of_string

(* ------------------------------------------------------------------ *)
(* Client *)

let test_blob_write_read_roundtrip () =
  let rig = make_rig () in
  let from = rig.client_host in
  let content = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let ok =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:100_000 in
        let v = Client.write blob ~from ~offset:0 (payload_str content) in
        let back = Client.read blob ~from ~version:v ~offset:0 ~len:5000 in
        Payload.to_string back = content)
  in
  Alcotest.(check bool) "roundtrip" true ok

let test_blob_unwritten_reads_zero () =
  let rig = make_rig () in
  let from = rig.client_host in
  let all_zero =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:10_000 in
        let p = Client.read blob ~from ~version:0 ~offset:500 ~len:100 in
        Payload.equal p (Payload.zero 100))
  in
  Alcotest.(check bool) "zeros" true all_zero

let test_blob_versions_isolated () =
  let rig = make_rig () in
  let from = rig.client_host in
  let v1_content, v2_content =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:10_000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str "aaaa") in
        let v2 = Client.write blob ~from ~offset:0 (payload_str "bbbb") in
        ( Payload.to_string (Client.read blob ~from ~version:v1 ~offset:0 ~len:4),
          Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:4) ))
  in
  Alcotest.(check string) "v1 immutable" "aaaa" v1_content;
  Alcotest.(check string) "v2 current" "bbbb" v2_content

let test_blob_partial_stripe_rmw () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let result =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let base = String.make 300 'x' in
        let v1 = Client.write blob ~from ~offset:0 (payload_str base) in
        (* Overwrite 50 bytes spanning a stripe boundary. *)
        let v2 = Client.write blob ~from ~offset:75 (payload_str (String.make 50 'y')) in
        ignore v1;
        Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:300))
  in
  let expected = String.make 75 'x' ^ String.make 50 'y' ^ String.make 175 'x' in
  Alcotest.(check string) "spliced" expected result

let test_blob_write_unaligned_offset () =
  let rig = make_rig ~stripe:64 () in
  let from = rig.client_host in
  let result =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:10 (payload_str "hello") in
        Payload.to_string (Client.read blob ~from ~version:v ~offset:8 ~len:9))
  in
  Alcotest.(check string) "zero-padded around" "\000\000hello\000\000" result

let test_blob_bounds_checked () =
  let rig = make_rig () in
  let from = rig.client_host in
  let raised =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:100 in
        try
          ignore (Client.write blob ~from ~offset:90 (payload_str (String.make 20 'z')));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "write beyond capacity rejected" true raised

let test_blob_clone_shares_then_diverges () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let original, cloned, original_after =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 200 'a')) in
        let fork = Client.clone blob ~from ~version:v1 in
        let fv = Client.write fork ~from ~offset:0 (payload_str (String.make 100 'b')) in
        ( Payload.to_string (Client.read blob ~from ~version:v1 ~offset:0 ~len:200),
          Payload.to_string (Client.read fork ~from ~version:fv ~offset:0 ~len:200),
          Payload.to_string (Client.read blob ~from ~version:v1 ~offset:100 ~len:100) ))
  in
  Alcotest.(check string) "original" (String.make 200 'a') original;
  Alcotest.(check string) "clone diverged" (String.make 100 'b' ^ String.make 100 'a') cloned;
  Alcotest.(check string) "original unaffected" (String.make 100 'a') original_after

let test_blob_clone_is_zero_copy () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let before, after =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 500 'a')) in
        let before = Client.repository_bytes rig.service in
        let _fork = Client.clone blob ~from ~version:v1 in
        (before, Client.repository_bytes rig.service))
  in
  Alcotest.(check int) "no data copied" before after

let test_blob_incremental_storage () =
  (* Writing 1 chunk on top of a 10-chunk blob stores 1 extra chunk, not
     10 — the shadowing property at the storage level. *)
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let after_base, after_update, distinct =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        (* Per-chunk-distinct content: identical chunks would dedup into
           one stored copy, which is not what this test measures. *)
        let _ =
          Client.write blob ~from ~offset:0
            (payload_str (String.init 1000 (fun i -> Char.chr (i mod 251))))
        in
        let after_base = Client.repository_bytes rig.service in
        let _ = Client.write blob ~from ~offset:300 (payload_str (String.make 100 'b')) in
        (after_base, Client.repository_bytes rig.service, Client.distinct_bytes blob))
  in
  Alcotest.(check int) "base" 1000 after_base;
  Alcotest.(check int) "one chunk added" 1100 after_update;
  Alcotest.(check int) "distinct bytes" 1100 distinct

let test_blob_version_bytes () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let v1_bytes, v2_bytes =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 300 'a')) in
        let v2 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'b')) in
        (Client.version_bytes blob ~version:v1, Client.version_bytes blob ~version:v2))
  in
  Alcotest.(check int) "v1 references 3 chunks" 300 v1_bytes;
  Alcotest.(check int) "v2 references 3 chunks too" 300 v2_bytes

let test_blob_replication_survives_provider_loss () =
  let rig = make_rig ~providers:4 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let recovered =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str (String.make 400 'r')) in
        (* Kill one provider; every chunk still has a replica elsewhere. *)
        Data_provider.fail (Client.data_provider rig.service 0);
        Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:400))
  in
  Alcotest.(check string) "readable after failure" (String.make 400 'r') recovered

let test_blob_replication3_survives_two_losses () =
  let rig = make_rig ~providers:4 ~replication:3 ~stripe:100 () in
  let from = rig.client_host in
  let recovered =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str (String.make 400 's')) in
        (* Two of four providers fail-stop; the third replica of every
           chunk still answers, through as many failover rounds as the
           replica order demands. *)
        Data_provider.fail (Client.data_provider rig.service 0);
        Data_provider.fail (Client.data_provider rig.service 1);
        Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:400))
  in
  Alcotest.(check string) "readable after two failures" (String.make 400 's') recovered

let test_provider_transient_disk_retried () =
  (* Transient I/O errors on a provider's disk are absorbed by the
     provider's bounded-retry discipline — no replica needed. *)
  let rig = make_rig ~providers:2 ~replication:1 ~stripe:100 () in
  let from = rig.client_host in
  let content = String.make 150 't' in
  let back, armed =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str content) in
        Array.iter
          (fun p -> Disk.inject_transient (Data_provider.disk p) ~ops:1)
          (Client.data_providers rig.service);
        let back = Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:150) in
        ( back,
          Array.fold_left
            (fun acc p -> acc + Disk.armed_faults (Data_provider.disk p))
            0
            (Client.data_providers rig.service) ))
  in
  Alcotest.(check string) "read through transient faults" content back;
  Alcotest.(check int) "faults consumed by retries" 0 armed

let test_blob_unreplicated_loss_raises () =
  let rig = make_rig ~providers:2 ~replication:1 ~stripe:100 () in
  let from = rig.client_host in
  let raised =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str (String.make 400 'r')) in
        Data_provider.fail (Client.data_provider rig.service 0);
        Data_provider.fail (Client.data_provider rig.service 1);
        try
          ignore (Client.read blob ~from ~version:v ~offset:0 ~len:400);
          false
        with Types.Provider_down _ -> true)
  in
  Alcotest.(check bool) "provider_down" true raised

let test_blob_concurrent_writers_merge () =
  (* Two clients write disjoint ranges concurrently: both read the same
     latest version as their base, and both updates survive in the final
     version. *)
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let final =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 400 '.')));
        Engine.all rig.engine
          [
            (fun () ->
              ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 100 'A'))));
            (fun () ->
              ignore
                (Client.write blob ~from ~offset:200 (payload_str (String.make 100 'B'))));
          ];
        let latest = Client.latest_version blob ~from in
        Payload.to_string (Client.read blob ~from ~version:latest ~offset:0 ~len:400))
  in
  Alcotest.(check string) "both writes survive"
    (String.make 100 'A' ^ String.make 100 '.' ^ String.make 100 'B' ^ String.make 100 '.')
    final

let test_blob_striping_spreads_load () =
  let rig = make_rig ~providers:4 ~stripe:100 () in
  let from = rig.client_host in
  let counts =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:10_000 in
        (* Per-chunk-distinct content, so every chunk is physically placed
           (identical chunks would dedup into one). *)
        let _ =
          Client.write blob ~from ~offset:0
            (payload_str (String.init 8000 (fun i -> Char.chr (i mod 251))))
        in
        Array.to_list (Array.map Data_provider.chunk_count (Client.data_providers rig.service)))
  in
  Alcotest.(check (list int)) "even spread" [ 20; 20; 20; 20 ] counts

let test_blob_write_takes_simulated_time () =
  let rig = make_rig ~stripe:(256 * Size.kib) () in
  let from = rig.client_host in
  let elapsed =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:(Size.mib_n 64) in
        let t0 = Engine.now rig.engine in
        let _ =
          Client.write blob ~from ~offset:0 (Payload.pattern ~seed:1L (Size.mib_n 16))
        in
        Engine.now rig.engine -. t0)
  in
  (* 16 MiB over 4 provider disks at 55 MB/s: at least the disk time of the
     most loaded provider (~4 MiB / 55 MBps ~ 0.07 s), at most a couple of
     seconds. *)
  Alcotest.(check bool) (Fmt.str "plausible duration %.3fs" elapsed) true
    (elapsed > 0.05 && elapsed < 3.0)

let test_open_blob_by_id () =
  let rig = make_rig () in
  let from = rig.client_host in
  let same =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str "persistent") in
        let reopened = Client.open_blob rig.service ~from ~id:(Client.blob_id blob) in
        Payload.to_string (Client.read reopened ~from ~version:v ~offset:0 ~len:10))
  in
  Alcotest.(check string) "reopened" "persistent" same

(* Property: arbitrary write sequences against a reference byte array. *)
let prop_blob_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (let* offset = int_range 0 990 in
         let* len = int_range 1 (1000 - offset) in
         let* ch = char in
         return (offset, len, ch)))
  in
  QCheck.Test.make ~name:"blob: random writes match reference array" ~count:30
    (QCheck.make gen)
    (fun ops ->
      let rig = make_rig ~stripe:64 () in
      let from = rig.client_host in
      run_rig rig (fun () ->
          let blob = Client.create_blob rig.service ~from ~capacity:1000 in
          let reference = Bytes.make 1000 '\000' in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              ignore (Client.write blob ~from ~offset (payload_str (String.make len ch))))
            ops;
          let latest = Client.latest_version blob ~from in
          let back = Client.read blob ~from ~version:latest ~offset:0 ~len:1000 in
          Payload.to_string back = Bytes.to_string reference))

(* ------------------------------------------------------------------ *)
(* Replica placement: failure domains *)

(* A rig where several providers share each physical host — the situation
   in which naive round-robin would happily co-locate two replicas of the
   same chunk. *)
let make_colocated_rig ?(hosts = 2) ?(providers_per_host = 2) ?(replication = 2)
    ?(stripe = 100) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let vm_host = Net.add_host net ~name:"vmanager" in
  let pm_host = Net.add_host net ~name:"pmanager" in
  let md_hosts = [ Net.add_host net ~name:"meta0" ] in
  let data =
    List.concat
      (List.init hosts (fun h ->
           let host = Net.add_host net ~name:(Fmt.str "machine%d" h) in
           List.init providers_per_host (fun k ->
               (host, Disk.create engine ~name:(Fmt.str "disk%d.%d" h k) ()))))
  in
  let client_host = Net.add_host net ~name:"client" in
  let params = { Types.default_params with stripe_size = stripe; replication } in
  let service =
    Client.deploy engine net ~params ~version_manager_host:vm_host
      ~provider_manager_host:pm_host ~metadata_hosts:md_hosts ~data_providers:data
  in
  { engine; net; service; client_host }

let replica_hosts service (desc : Types.chunk_desc) =
  List.map
    (fun (r : Types.replica) ->
      Net.host_id (Data_provider.host (Client.data_provider service r.provider)))
    desc.replicas

let live_descs service blob =
  let tree = Client.tree blob ~version:(Version_manager.peek_latest
                                          (Client.version_manager service)
                                          (Client.blob_id blob)) in
  Segment_tree.fold_set (fun i d acc -> (i, d) :: acc) tree [] |> List.rev

let test_placement_never_colocates_replicas () =
  (* 2 machines x 2 providers, replication 2: every chunk must land on both
     machines, never twice on one — even though 4 providers are live. *)
  let rig = make_colocated_rig () in
  let from = rig.client_host in
  let descs =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let _ = Client.write blob ~from ~offset:0 (payload_str (String.make 1000 'p')) in
        live_descs rig.service blob)
  in
  Alcotest.(check int) "ten chunks" 10 (List.length descs);
  List.iter
    (fun (i, desc) ->
      let hosts = replica_hosts rig.service desc in
      Alcotest.(check int) (Fmt.str "chunk %d has 2 replicas" i) 2 (List.length hosts);
      Alcotest.(check bool)
        (Fmt.str "chunk %d replicas on distinct machines" i)
        true
        (List.length (List.sort_uniq compare hosts) = 2))
    descs

let test_placement_degraded_when_hosts_short () =
  (* Both providers of machine 1 fail: only one failure domain remains, so
     replication-2 writes place a single copy and are counted degraded. *)
  let rig = make_colocated_rig () in
  let from = rig.client_host in
  let descs, degraded =
    run_rig rig (fun () ->
        Data_provider.fail (Client.data_provider rig.service 2);
        Data_provider.fail (Client.data_provider rig.service 3);
        let blob = Client.create_blob rig.service ~from ~capacity:500 in
        (* Distinct chunks: each one must go through placement (identical
           chunks would dedup after the first degraded allocation). *)
        let _ =
          Client.write blob ~from ~offset:0
            (payload_str (String.init 500 (fun i -> Char.chr (i mod 251))))
        in
        (live_descs rig.service blob,
         Provider_manager.degraded_allocations (Client.provider_manager rig.service)))
  in
  Alcotest.(check bool) "degraded allocations counted" true (degraded >= 5);
  List.iter
    (fun (i, (desc : Types.chunk_desc)) ->
      Alcotest.(check int) (Fmt.str "chunk %d single copy" i) 1 (List.length desc.replicas))
    descs

(* ------------------------------------------------------------------ *)
(* End-to-end chunk integrity *)

let first_desc service blob = snd (List.hd (live_descs service blob))

let test_read_checksum_failover () =
  let rig = make_rig ~providers:3 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let content = String.make 300 'i' in
  let back, failures =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str content) in
        (* Silently corrupt the primary copy of the first chunk: the read
           must detect the digest mismatch and fail over to the replica. *)
        let desc = first_desc rig.service blob in
        let r = List.hd desc.Types.replicas in
        Alcotest.(check bool) "corruption landed" true
          (Data_provider.corrupt_chunk
             (Client.data_provider rig.service r.Types.provider)
             ~salt:7 r.Types.chunk);
        let back = Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:300) in
        (back, Client.integrity_failures rig.service))
  in
  Alcotest.(check string) "payload intact despite corrupt primary" content back;
  Alcotest.(check bool) "failover counted" true (failures >= 1)

let test_read_all_copies_corrupt_raises () =
  let rig = make_rig ~providers:3 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let raised =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'c')) in
        let desc = first_desc rig.service blob in
        List.iter
          (fun (r : Types.replica) ->
            ignore
              (Data_provider.corrupt_chunk
                 (Client.data_provider rig.service r.provider)
                 ~salt:9 r.chunk))
          desc.Types.replicas;
        (* Every copy fails verification: a corrupt replica is a failed
           replica, so the read ends in the same typed error as total
           replica loss — never silently returned garbage. *)
        try
          ignore (Client.read blob ~from ~version:v ~offset:0 ~len:100);
          false
        with Types.Provider_down _ -> true)
  in
  Alcotest.(check bool) "typed failure, no garbage" true raised

(* ------------------------------------------------------------------ *)
(* Journaled publication: crash points and recovery *)

let test_publish_crash_before_apply_rolls_back () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let ok =
    run_rig rig (fun () ->
        let vm = Client.version_manager rig.service in
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'a')) in
        Version_manager.arm_crash vm Version_manager.Before_apply;
        let crashed =
          try
            ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 100 'b')));
            false
          with Types.Service_crashed _ -> true
        in
        Alcotest.(check bool) "publish crashed" true crashed;
        Alcotest.(check bool) "service down" false (Version_manager.is_alive vm);
        Alcotest.(check int) "intent pending" 1 (Version_manager.journal_pending vm);
        Version_manager.restart vm;
        Alcotest.(check int) "journal quiescent" 0 (Version_manager.journal_pending vm);
        Alcotest.(check int) "one intent recovered" 1 (Version_manager.recovered_intents vm);
        (* Nothing half-published: latest still v1, and a fresh write gets
           the next version as if the crashed attempt never happened. *)
        Alcotest.(check int) "latest unchanged" v1 (Client.latest_version blob ~from);
        let v2 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'c')) in
        Alcotest.(check int) "dense versions" (v1 + 1) v2;
        Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:100)
        = String.make 100 'c')
  in
  Alcotest.(check bool) "retry publishes cleanly" true ok

let test_publish_crash_mid_apply_rolls_back () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let ok =
    run_rig rig (fun () ->
        let vm = Client.version_manager rig.service in
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'a')) in
        let crashed =
          Version_manager.arm_crash vm Version_manager.Mid_apply;
          try
            ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 100 'b')));
            false
          with Types.Service_crashed _ -> true
        in
        Alcotest.(check bool) "publish crashed mid-apply" true crashed;
        Version_manager.restart vm;
        (* The half-inserted version was rolled back: reading the version
           after latest must fail, and the version list stays dense. *)
        Alcotest.(check int) "latest unchanged" v1 (Client.latest_version blob ~from);
        Alcotest.(check (list int))
          "no orphan version"
          (List.init (v1 + 1) Fun.id)
          (Version_manager.versions vm ~blob:(Client.blob_id blob));
        let v2 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'c')) in
        Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:100)
        = String.make 100 'c')
  in
  Alcotest.(check bool) "recovered and republished" true ok

let test_clone_crash_rolls_back () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let ok =
    run_rig rig (fun () ->
        let vm = Client.version_manager rig.service in
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'a')) in
        let blobs_before = List.length (Version_manager.blob_ids vm) in
        Version_manager.arm_crash vm Version_manager.Mid_apply;
        let crashed =
          try
            ignore (Client.clone blob ~from ~version:v1);
            false
          with Types.Service_crashed _ -> true
        in
        Alcotest.(check bool) "clone crashed" true crashed;
        Version_manager.restart vm;
        Alcotest.(check int) "no half-registered blob" blobs_before
          (List.length (Version_manager.blob_ids vm));
        (* Retried clone works and reads the snapshot back (the fork
           rebases the snapshot as its own version 0). *)
        let fork = Client.clone blob ~from ~version:v1 in
        Payload.to_string (Client.read fork ~from ~version:0 ~offset:0 ~len:100)
        = String.make 100 'a')
  in
  Alcotest.(check bool) "clone retried after recovery" true ok

(* Two clones queue on the version manager; the first crashes it before
   applying. The second, served after the crash, must fail too: applied,
   it would register the blob id the crashed intent names, and journal
   recovery would then delete the blob it just handed out. *)
let test_clone_queued_behind_crash_not_applied () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let forks, blobs_before, blobs_after =
    run_rig rig (fun () ->
        let vm = Client.version_manager rig.service in
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'a')) in
        let blobs_before = List.length (Version_manager.blob_ids vm) in
        Version_manager.arm_crash vm Version_manager.Before_apply;
        let forks = ref [] in
        Engine.all rig.engine
          (List.init 2 (fun _ () ->
               match Client.clone blob ~from ~version:v1 with
               | fork -> forks := fork :: !forks
               | exception Types.Service_crashed _ -> ()));
        Version_manager.restart vm;
        (!forks, blobs_before, List.length (Version_manager.blob_ids vm)))
  in
  Alcotest.(check int) "no clone applied on a crashed service" 0 (List.length forks);
  Alcotest.(check int) "no blob registered" blobs_before blobs_after

let test_metadata_crash_recovery () =
  let rig = make_rig ~stripe:100 () in
  let from = rig.client_host in
  let ok =
    run_rig rig (fun () ->
        let md = Client.metadata_service rig.service in
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v1 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'a')) in
        Metadata_service.arm_crash md;
        let crashed =
          try
            ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 100 'b')));
            false
          with Types.Service_crashed _ -> true
        in
        Alcotest.(check bool) "metadata commit crashed" true crashed;
        Alcotest.(check int) "intent pending" 1 (Metadata_service.journal_pending md);
        Metadata_service.recover_journal md;
        Alcotest.(check int) "journal quiescent" 0 (Metadata_service.journal_pending md);
        (* The version was never published — latest is still v1 — and the
           repository keeps serving. *)
        Alcotest.(check int) "latest unchanged" v1 (Client.latest_version blob ~from);
        let v2 = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'c')) in
        Payload.to_string (Client.read blob ~from ~version:v2 ~offset:0 ~len:100)
        = String.make 100 'c')
  in
  Alcotest.(check bool) "metadata recovered" true ok

(* ------------------------------------------------------------------ *)
(* Scrub & repair *)

let all_replicas_verify service blob =
  List.for_all
    (fun (_, (desc : Types.chunk_desc)) ->
      List.for_all
        (fun (r : Types.replica) ->
          Data_provider.verify_chunk (Client.data_provider service r.provider) r.chunk)
        desc.replicas)
    (live_descs service blob)

let test_scrubber_repairs_corrupt_replica () =
  let rig = make_rig ~providers:3 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let content = String.make 300 's' in
  let repaired_ok =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str content) in
        let desc = first_desc rig.service blob in
        let r = List.hd desc.Types.replicas in
        ignore
          (Data_provider.corrupt_chunk
             (Client.data_provider rig.service r.Types.provider)
             ~salt:3 r.Types.chunk);
        let scrub = Scrubber.create rig.service ~home:rig.client_host () in
        Scrubber.scan scrub;
        let stats = Scrubber.stats scrub in
        Alcotest.(check int) "one repair" 1 stats.Scrubber.repairs;
        Alcotest.(check int) "repair traffic = one chunk" 100 stats.Scrubber.repair_bytes;
        Alcotest.(check int) "nothing unrepairable" 0 stats.Scrubber.unrepairable;
        Alcotest.(check bool) "version restorable" true
          (Scrubber.version_ok scrub ~blob:(Client.blob_id blob) ~version:v);
        (* After repair every copy verifies locally and the read sees the
           original bytes without needing a failover. *)
        Alcotest.(check bool) "all replicas verify" true (all_replicas_verify rig.service blob);
        let back = Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:300) in
        Alcotest.(check int) "no failover needed" 0 (Client.integrity_failures rig.service);
        back = content)
  in
  Alcotest.(check bool) "repaired in place" true repaired_ok

let test_scrubber_re_replicates_lost_copies () =
  let rig = make_rig ~providers:4 ~replication:2 ~stripe:100 () in
  let from = rig.client_host in
  let ok =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1000 in
        let v = Client.write blob ~from ~offset:0 (payload_str (String.make 800 'l')) in
        (* A machine dies with its provider: every chunk it held is now
           under-replicated until the scrubber re-replicates. *)
        Data_provider.fail (Client.data_provider rig.service 0);
        let scrub = Scrubber.create rig.service ~home:rig.client_host () in
        Scrubber.scan scrub;
        let stats = Scrubber.stats scrub in
        Alcotest.(check bool) "some chunks re-replicated" true (stats.Scrubber.repairs > 0);
        (* Every descriptor now references live, distinct-host, verifying
           replicas at full replication. *)
        List.iter
          (fun (i, (desc : Types.chunk_desc)) ->
            Alcotest.(check int) (Fmt.str "chunk %d back to 2 copies" i) 2
              (List.length desc.replicas);
            let hosts = replica_hosts rig.service desc in
            Alcotest.(check bool) (Fmt.str "chunk %d distinct hosts" i) true
              (List.length (List.sort_uniq compare hosts) = 2);
            List.iter
              (fun (r : Types.replica) ->
                Alcotest.(check bool) (Fmt.str "chunk %d replica alive" i) true
                  (Data_provider.is_alive (Client.data_provider rig.service r.provider)))
              desc.replicas)
          (live_descs rig.service blob);
        Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:800)
        = String.make 800 'l')
  in
  Alcotest.(check bool) "healed to full replication" true ok

let test_scrubber_unrepairable_reported () =
  let rig = make_rig ~providers:3 ~replication:1 ~stripe:100 () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = Client.create_blob rig.service ~from ~capacity:300 in
      let v = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'u')) in
      let desc = first_desc rig.service blob in
      let r = List.hd desc.Types.replicas in
      ignore
        (Data_provider.corrupt_chunk
           (Client.data_provider rig.service r.Types.provider)
           ~salt:5 r.Types.chunk);
      let scrub = Scrubber.create rig.service ~home:rig.client_host () in
      Scrubber.scan scrub;
      let stats = Scrubber.stats scrub in
      Alcotest.(check int) "unrepairable chunk counted" 1 stats.Scrubber.unrepairable;
      Alcotest.(check int) "no repair possible" 0 stats.Scrubber.repairs;
      Alcotest.(check bool) "version flagged unrestorable" false
        (Scrubber.version_ok scrub ~blob:(Client.blob_id blob) ~version:v);
      Alcotest.(check bool) "unrepairable event logged" true
        (List.exists
           (function Scrubber.Unrepairable _ -> true | _ -> false)
           (Scrubber.events scrub)))

let test_scrubber_quorum_failure_defers_repair () =
  (* Replication 3 on 3 machines with two dead: 1 good copy remains and no
     spare failure domain exists, so the majority quorum of 2 cannot be
     met — the chunk stays degraded and is retried, not force-published. *)
  let rig = make_rig ~providers:3 ~replication:3 ~stripe:100 () in
  let from = rig.client_host in
  run_rig rig (fun () ->
      let blob = Client.create_blob rig.service ~from ~capacity:300 in
      let v = Client.write blob ~from ~offset:0 (payload_str (String.make 100 'q')) in
      Data_provider.fail (Client.data_provider rig.service 0);
      Data_provider.fail (Client.data_provider rig.service 1);
      let scrub = Scrubber.create rig.service ~home:rig.client_host () in
      Scrubber.scan scrub;
      let stats = Scrubber.stats scrub in
      Alcotest.(check bool) "quorum failures counted" true (stats.Scrubber.quorum_failures > 0);
      Alcotest.(check int) "nothing published" 0 stats.Scrubber.repairs;
      Alcotest.(check bool) "version held back from rollback" false
        (Scrubber.version_ok scrub ~blob:(Client.blob_id blob) ~version:v);
      (* The surviving copies still serve reads. *)
      Alcotest.(check bool) "data still readable" true
        (Payload.to_string (Client.read blob ~from ~version:v ~offset:0 ~len:100)
        = String.make 100 'q'))

(* ------------------------------------------------------------------ *)
(* Invariants: each structure's audit catches a seeded defect *)

(* Tests that seed corruption and audit by hand must not also trip the
   teardown audit (armed suite-wide via BLOBCR_AUDIT=1 in test/dune). *)
let without_teardown_audits f =
  let was = Engine.audits_enabled () in
  Engine.set_audits_enabled false;
  Fun.protect ~finally:(fun () -> Engine.set_audits_enabled was) f

let invariants violations = List.map (fun (v : Engine.violation) -> v.invariant) violations

(* The teardown audit's findings for the version manager, run now. *)
let version_manager_audit engine =
  List.filter
    (fun (v : Engine.violation) -> String.starts_with ~prefix:"version-manager:" v.subject)
    (Engine.audit engine)

let test_version_manager_audit_catches_version_hole () =
  without_teardown_audits @@ fun () ->
  let rig = make_rig () in
  let from = rig.client_host in
  let clean, holed =
    run_rig rig (fun () ->
        let blob = Client.create_blob rig.service ~from ~capacity:1024 in
        let write c =
          ignore (Client.write blob ~from ~offset:0 (payload_str (String.make 1024 c)))
        in
        write 'a';
        write 'b';
        write 'c';
        let vm = Client.version_manager rig.service in
        let clean = version_manager_audit rig.engine in
        (* Retention punches accounted holes: a retired middle version is
           recorded as such and the union check stays clean. *)
        ignore (Version_manager.retire_version vm ~blob:(Client.blob_id blob) ~version:2);
        let retained = version_manager_audit rig.engine in
        (* A version in neither the live nor the retired set was lost, not
           retired — the seeded defect the audit must catch. *)
        Version_manager.unsafe_forget_version vm ~blob:(Client.blob_id blob) ~version:1;
        (clean @ retained, version_manager_audit rig.engine))
  in
  Alcotest.(check (list string)) "live and retention-holed manager audit clean" []
    (invariants clean);
  Alcotest.(check bool) "version hole caught" true (List.mem "versions-dense" (invariants holed))

let test_segment_tree_audit () =
  let tree = Segment_tree.create ~chunks:4 in
  let tree, _ = Segment_tree.set_range tree ~start:1 [| Some 1; Some 2 |] in
  Alcotest.(check (list string)) "well-formed tree audits clean" []
    (invariants (Segment_tree.audit ~subject:"t" ~chunks:4 tree));
  Alcotest.(check bool) "undersized tree caught" true
    (Segment_tree.audit ~subject:"t" ~chunks:16 tree <> [])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "blobseer"
    [
      ( "invariants",
        [
          Alcotest.test_case "version hole caught" `Quick
            test_version_manager_audit_catches_version_hole;
          Alcotest.test_case "segment-tree shape audit" `Quick test_segment_tree_audit;
        ] );
      ( "segment_tree",
        [
          Alcotest.test_case "empty" `Quick test_tree_empty;
          Alcotest.test_case "set/get" `Quick test_tree_set_get;
          Alcotest.test_case "non-power-of-two size" `Quick test_tree_non_pow2;
          Alcotest.test_case "shadowing shares structure" `Quick
            test_tree_shadowing_shares_structure;
          Alcotest.test_case "unset leaf" `Quick test_tree_unset_leaf;
          Alcotest.test_case "noop set shares all" `Quick test_tree_noop_set_shares_all;
          Alcotest.test_case "diff leaves" `Quick test_tree_diff_leaves;
          Alcotest.test_case "zero-length writes" `Quick test_tree_zero_length_write;
          Alcotest.test_case "write straddles subtree boundary" `Quick
            test_tree_write_straddles_subtree_boundary;
          Alcotest.test_case "lookups past EOF" `Quick test_tree_lookup_past_eof;
        ]
        @ qsuite [ prop_tree_matches_array ] );
      ( "client",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_blob_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_blob_unwritten_reads_zero;
          Alcotest.test_case "versions isolated" `Quick test_blob_versions_isolated;
          Alcotest.test_case "partial stripe RMW" `Quick test_blob_partial_stripe_rmw;
          Alcotest.test_case "unaligned offset" `Quick test_blob_write_unaligned_offset;
          Alcotest.test_case "bounds checked" `Quick test_blob_bounds_checked;
          Alcotest.test_case "clone shares then diverges" `Quick
            test_blob_clone_shares_then_diverges;
          Alcotest.test_case "clone is zero-copy" `Quick test_blob_clone_is_zero_copy;
          Alcotest.test_case "incremental storage" `Quick test_blob_incremental_storage;
          Alcotest.test_case "version bytes" `Quick test_blob_version_bytes;
          Alcotest.test_case "replication survives provider loss" `Quick
            test_blob_replication_survives_provider_loss;
          Alcotest.test_case "replication 3 survives two losses" `Quick
            test_blob_replication3_survives_two_losses;
          Alcotest.test_case "provider transient disk retried" `Quick
            test_provider_transient_disk_retried;
          Alcotest.test_case "unreplicated loss raises" `Quick test_blob_unreplicated_loss_raises;
          Alcotest.test_case "concurrent writers merge" `Quick test_blob_concurrent_writers_merge;
          Alcotest.test_case "striping spreads load" `Quick test_blob_striping_spreads_load;
          Alcotest.test_case "write takes simulated time" `Quick
            test_blob_write_takes_simulated_time;
          Alcotest.test_case "open blob by id" `Quick test_open_blob_by_id;
        ]
        @ qsuite [ prop_blob_matches_reference ] );
      ( "placement",
        [
          Alcotest.test_case "never co-locates replicas" `Quick
            test_placement_never_colocates_replicas;
          Alcotest.test_case "degraded when hosts short" `Quick
            test_placement_degraded_when_hosts_short;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "checksum mismatch fails over" `Quick test_read_checksum_failover;
          Alcotest.test_case "all copies corrupt raises typed error" `Quick
            test_read_all_copies_corrupt_raises;
        ] );
      ( "journal",
        [
          Alcotest.test_case "publish crash before apply" `Quick
            test_publish_crash_before_apply_rolls_back;
          Alcotest.test_case "publish crash mid apply" `Quick
            test_publish_crash_mid_apply_rolls_back;
          Alcotest.test_case "clone crash rolls back" `Quick test_clone_crash_rolls_back;
          Alcotest.test_case "clone queued behind a crash not applied" `Quick
            test_clone_queued_behind_crash_not_applied;
          Alcotest.test_case "metadata crash recovery" `Quick test_metadata_crash_recovery;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "repairs corrupt replica" `Quick
            test_scrubber_repairs_corrupt_replica;
          Alcotest.test_case "re-replicates lost copies" `Quick
            test_scrubber_re_replicates_lost_copies;
          Alcotest.test_case "unrepairable reported" `Quick test_scrubber_unrepairable_reported;
          Alcotest.test_case "quorum failure defers repair" `Quick
            test_scrubber_quorum_failure_defers_repair;
        ] );
    ]
