(* Tests for the PVFS baseline: striping, namespace, in-place mutation,
   metadata serialization. *)

open Simcore
open Netsim
open Storage

type rig = {
  engine : Engine.t;
  fs : Pvfs.t;
  client : Net.host;
  disks : Disk.t list;
}

let make_rig ?(servers = 4) ?(params = { Pvfs.default_params with stripe_size = 100 }) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-4 } in
  let metadata_host = Net.add_host net ~name:"pvfs-md" in
  let io =
    List.init servers (fun i ->
        ( Net.add_host net ~name:(Fmt.str "io%d" i),
          Disk.create engine ~name:(Fmt.str "iodisk%d" i) () ))
  in
  let client = Net.add_host net ~name:"client" in
  let fs = Pvfs.deploy engine net ~params ~metadata_host ~io_servers:io in
  { engine; fs; client; disks = List.map snd io }

let run rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

let test_create_write_read () =
  let rig = make_rig () in
  let from = rig.client in
  let back =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/ckpt/rank0" in
        Pvfs.write f ~from ~offset:0 (Payload.of_string (String.make 450 'd'));
        Payload.to_string (Pvfs.read f ~from ~offset:0 ~len:450))
  in
  Alcotest.(check string) "roundtrip" (String.make 450 'd') back

let test_overwrite_in_place () =
  let rig = make_rig () in
  let from = rig.client in
  let content, total =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/f" in
        Pvfs.write f ~from ~offset:0 (Payload.of_string (String.make 200 'a'));
        Pvfs.write f ~from ~offset:50 (Payload.of_string (String.make 100 'b'));
        ( Payload.to_string (Pvfs.read f ~from ~offset:0 ~len:200),
          Pvfs.total_bytes rig.fs ))
  in
  Alcotest.(check string) "overwritten"
    (String.make 50 'a' ^ String.make 100 'b' ^ String.make 50 'a')
    content;
  (* In-place: no versioning, storage stays at the file size. *)
  Alcotest.(check int) "no extra copies" 200 total

let test_file_extension_and_size () =
  let rig = make_rig () in
  let from = rig.client in
  let size =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/grow" in
        Pvfs.write f ~from ~offset:0 (Payload.of_string "xx");
        Pvfs.write f ~from ~offset:350 (Payload.of_string "yy");
        Pvfs.size f)
  in
  Alcotest.(check int) "grown" 352 size

let test_sparse_holes_read_zero () =
  let rig = make_rig () in
  let from = rig.client in
  let hole =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/sparse" in
        Pvfs.write f ~from ~offset:250 (Payload.of_string "z");
        Payload.to_string (Pvfs.read f ~from ~offset:100 ~len:50))
  in
  Alcotest.(check string) "zeros" (String.make 50 '\000') hole

let test_namespace_operations () =
  let rig = make_rig () in
  let from = rig.client in
  let exists_before, exists_after =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/a" in
        Pvfs.write f ~from ~offset:0 (Payload.of_string "data");
        let exists_before = Pvfs.exists rig.fs ~path:"/a" in
        Pvfs.delete rig.fs ~from ~path:"/a";
        (exists_before, Pvfs.exists rig.fs ~path:"/a"))
  in
  Alcotest.(check bool) "exists" true exists_before;
  Alcotest.(check bool) "deleted" false exists_after

let test_create_duplicate_rejected () =
  let rig = make_rig () in
  let from = rig.client in
  let raised =
    run rig (fun () ->
        let _ = Pvfs.create rig.fs ~from ~path:"/dup" in
        try
          let _ = Pvfs.create rig.fs ~from ~path:"/dup" in
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "duplicate rejected" true raised

let test_read_past_eof_rejected () =
  let rig = make_rig () in
  let from = rig.client in
  let raised =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/short" in
        Pvfs.write f ~from ~offset:0 (Payload.of_string "abc");
        try
          let _ = Pvfs.read f ~from ~offset:0 ~len:10 in
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "eof" true raised

let test_striping_spreads_data () =
  let rig = make_rig ~servers:4 () in
  let from = rig.client in
  let usages =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/big" in
        Pvfs.write f ~from ~offset:0 (Payload.pattern ~seed:1L 800);
        List.map Disk.used rig.disks)
  in
  Alcotest.(check (list int)) "even stripes" [ 200; 200; 200; 200 ] usages

let test_delete_frees_disks () =
  let rig = make_rig () in
  let from = rig.client in
  let after =
    run rig (fun () ->
        let f = Pvfs.create rig.fs ~from ~path:"/tmp" in
        Pvfs.write f ~from ~offset:0 (Payload.pattern ~seed:2L 400);
        Pvfs.delete rig.fs ~from ~path:"/tmp";
        List.fold_left (fun acc d -> acc + Disk.used d) 0 rig.disks)
  in
  Alcotest.(check int) "all freed" 0 after

let test_metadata_serializes_creates () =
  (* 10 concurrent creates must take at least 10 × metadata_op_cost. *)
  let params = { Pvfs.default_params with stripe_size = 100 } in
  let rig = make_rig ~params () in
  let from = rig.client in
  let elapsed =
    run rig (fun () ->
        let t0 = Engine.now rig.engine in
        Engine.all rig.engine
          (List.init 10 (fun i () ->
               ignore (Pvfs.create rig.fs ~from ~path:(Fmt.str "/c%d" i))));
        Engine.now rig.engine -. t0)
  in
  Alcotest.(check bool) (Fmt.str "serialized (%.3fs)" elapsed) true
    (elapsed >= 10.0 *. params.Pvfs.metadata_op_cost)

let prop_pvfs_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (let* offset = int_range 0 900 in
         let* len = int_range 1 100 in
         let* ch = printable in
         return (offset, len, ch)))
  in
  QCheck.Test.make ~name:"pvfs: random writes match reference array" ~count:30
    (QCheck.make gen)
    (fun ops ->
      let rig = make_rig () in
      let from = rig.client in
      run rig (fun () ->
          let f = Pvfs.create rig.fs ~from ~path:"/prop" in
          let reference = Bytes.make 1000 '\000' in
          let high = ref 0 in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              high := max !high (offset + len);
              Pvfs.write f ~from ~offset (Payload.of_string (String.make len ch)))
            ops;
          let back = Pvfs.read f ~from ~offset:0 ~len:!high in
          Payload.to_string back = Bytes.sub_string reference 0 !high))

let () =
  Alcotest.run "pvfs"
    [
      ( "pvfs",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "overwrite in place" `Quick test_overwrite_in_place;
          Alcotest.test_case "file extension" `Quick test_file_extension_and_size;
          Alcotest.test_case "sparse holes" `Quick test_sparse_holes_read_zero;
          Alcotest.test_case "namespace ops" `Quick test_namespace_operations;
          Alcotest.test_case "duplicate create rejected" `Quick test_create_duplicate_rejected;
          Alcotest.test_case "read past eof" `Quick test_read_past_eof_rejected;
          Alcotest.test_case "striping spreads data" `Quick test_striping_spreads_data;
          Alcotest.test_case "delete frees disks" `Quick test_delete_frees_disks;
          Alcotest.test_case "metadata serializes creates" `Quick
            test_metadata_serializes_creates;
          QCheck_alcotest.to_alcotest ~verbose:false prop_pvfs_matches_reference;
        ] );
    ]
