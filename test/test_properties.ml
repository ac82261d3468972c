(* Cross-cutting property tests: each image/FS stack is driven with random
   operation sequences and compared against a trivial reference model. These
   are the strongest correctness guarantees in the repository — any
   divergence between the COW machinery and plain byte arrays fails here. *)

open Simcore
open Netsim
open Storage
open Blobseer
open Vdisk
open Vmsim

(* ------------------------------------------------------------------ *)
(* Shared rig *)

type rig = {
  engine : Engine.t;
  net : Net.t;
  fs : Pvfs.t;
  service : Client.t;
  nodes : (Net.host * Disk.t) array;
}

let make_rig ?(stripe = 512) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 0.0 } in
  let md = Net.add_host net ~name:"md" in
  let vmh = Net.add_host net ~name:"vm" in
  let pmh = Net.add_host net ~name:"pm" in
  let meta = [ Net.add_host net ~name:"meta" ] in
  let nodes =
    Array.init 3 (fun i ->
        ( Net.add_host net ~name:(Fmt.str "n%d" i),
          Disk.create engine ~rate:1e12 ~per_op:0.0 ~seek:0.0
            ~name:(Fmt.str "d%d" i) () ))
  in
  let fs =
    Pvfs.deploy engine net
      ~params:{ Pvfs.default_params with stripe_size = stripe }
      ~metadata_host:md ~io_servers:(Array.to_list nodes)
  in
  let service =
    Client.deploy engine net
      ~params:{ Types.default_params with stripe_size = stripe }
      ~version_manager_host:vmh ~provider_manager_host:pmh ~metadata_hosts:meta
      ~data_providers:(Array.to_list nodes)
  in
  { engine; net; fs; service; nodes }

let run rig f =
  let result = ref None in
  let _ = Engine.Fiber.spawn rig.engine (fun () -> result := Some (f ())) in
  Engine.run rig.engine;
  Option.get !result

let writes_gen ~ops ~space ~max_len =
  QCheck.Gen.(
    list_size (int_range 1 ops)
      (let* offset = int_range 0 (space - 2) in
       let* len = int_range 1 (min max_len (space - offset)) in
       let* ch = printable in
       return (offset, len, ch)))

(* ------------------------------------------------------------------ *)
(* qcow2 vs reference, including a backing file *)

let prop_qcow2_matches_reference =
  QCheck.Test.make ~name:"qcow2 over raw backing matches reference array" ~count:40
    (QCheck.make (writes_gen ~ops:10 ~space:4000 ~max_len:800))
    (fun ops ->
      let rig = make_rig () in
      let host, disk = rig.nodes.(0) in
      run rig (fun () ->
          (* Backing raw image full of 'B'. *)
          let base = Pvfs.create rig.fs ~from:host ~path:"/base" in
          Pvfs.write base ~from:host ~offset:0 (Payload.of_string (String.make 4000 'B'));
          let reference = Bytes.make 4000 'B' in
          let q =
            Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:256 ~capacity:4000
              ~backing:(Qcow2.Raw_pvfs base) ~name:"q" ()
          in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              Qcow2.write q ~offset (Payload.of_string (String.make len ch)))
            ops;
          Payload.to_string (Qcow2.read q ~offset:0 ~len:4000) = Bytes.to_string reference))

let prop_qcow2_snapshot_immutable =
  QCheck.Test.make ~name:"qcow2 internal snapshot view is immutable under later writes"
    ~count:40
    (QCheck.make
       QCheck.Gen.(pair (writes_gen ~ops:6 ~space:2000 ~max_len:500)
                     (writes_gen ~ops:6 ~space:2000 ~max_len:500)))
    (fun (before, after) ->
      let rig = make_rig () in
      let host, disk = rig.nodes.(0) in
      let host2, disk2 = rig.nodes.(1) in
      run rig (fun () ->
          let reference = Bytes.make 2000 '\000' in
          let q =
            Qcow2.create rig.engine ~host ~local_disk:disk ~cluster_size:128 ~capacity:2000
              ~backing:Qcow2.No_backing ~name:"q" ()
          in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              Qcow2.write q ~offset (Payload.of_string (String.make len ch)))
            before;
          let frozen = Bytes.to_string reference in
          Qcow2.savevm q ~snapshot_name:"s" ~vm_state:(Payload.zero 64);
          List.iter
            (fun (offset, len, ch) ->
              Qcow2.write q ~offset (Payload.of_string (String.make len ch)))
            after;
          (* Export and view the snapshot from another node. *)
          let remote = Qcow2.export q rig.fs ~from:host ~path:"/exp" in
          let view = Qcow2.remote_table_of_snapshot remote ~snapshot_name:"s" in
          let q2 =
            Qcow2.create rig.engine ~host:host2 ~local_disk:disk2 ~cluster_size:128
              ~capacity:2000 ~backing:(Qcow2.Qcow2_remote view) ~name:"q2" ()
          in
          Payload.to_string (Qcow2.read q2 ~offset:0 ~len:2000) = frozen))

(* ------------------------------------------------------------------ *)
(* Mirror: random writes + commit + remirror equals reference *)

let prop_mirror_commit_restores_reference =
  QCheck.Test.make ~name:"mirror: writes + COMMIT + fresh mirror = reference" ~count:40
    (QCheck.make (writes_gen ~ops:8 ~space:3000 ~max_len:700))
    (fun ops ->
      let rig = make_rig () in
      let host0, disk0 = rig.nodes.(0) in
      let host1, disk1 = rig.nodes.(1) in
      run rig (fun () ->
          let base = Client.create_blob rig.service ~from:host0 ~capacity:3000 in
          let v0 = Client.write base ~from:host0 ~offset:0 (Payload.of_string (String.make 3000 'O')) in
          let reference = Bytes.make 3000 'O' in
          let m =
            Mirror.create rig.engine ~host:host0 ~local_disk:disk0 ~base ~base_version:v0
              ~name:"m" ()
          in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              Mirror.write m ~offset (Payload.of_string (String.make len ch)))
            ops;
          let version = Mirror.commit m in
          let ckpt = Option.get (Mirror.checkpoint_image m) in
          let m2 =
            Mirror.create rig.engine ~host:host1 ~local_disk:disk1 ~base:ckpt
              ~base_version:version ~name:"m2" ()
          in
          Payload.to_string (Block_dev.read (Mirror.device m2) ~offset:0 ~len:3000)
          = Bytes.to_string reference))

let prop_mirror_uncommitted_writes_roll_back =
  QCheck.Test.make ~name:"mirror: uncommitted writes never reach the snapshot" ~count:40
    (QCheck.make
       QCheck.Gen.(pair (writes_gen ~ops:5 ~space:2000 ~max_len:400)
                     (writes_gen ~ops:5 ~space:2000 ~max_len:400)))
    (fun (committed, stray) ->
      let rig = make_rig () in
      let host0, disk0 = rig.nodes.(0) in
      let host1, disk1 = rig.nodes.(1) in
      run rig (fun () ->
          let base = Client.create_blob rig.service ~from:host0 ~capacity:2000 in
          let v0 = Client.write base ~from:host0 ~offset:0 (Payload.zero 2000) in
          let reference = Bytes.make 2000 '\000' in
          let m =
            Mirror.create rig.engine ~host:host0 ~local_disk:disk0 ~base ~base_version:v0
              ~name:"m" ()
          in
          List.iter
            (fun (offset, len, ch) ->
              Bytes.fill reference offset len ch;
              Mirror.write m ~offset (Payload.of_string (String.make len ch)))
            committed;
          let version = Mirror.commit m in
          List.iter
            (fun (offset, len, ch) ->
              Mirror.write m ~offset (Payload.of_string (String.make len ch)))
            stray;
          let ckpt = Option.get (Mirror.checkpoint_image m) in
          let m2 =
            Mirror.create rig.engine ~host:host1 ~local_disk:disk1 ~base:ckpt
              ~base_version:version ~name:"m2" ()
          in
          Payload.to_string (Block_dev.read (Mirror.device m2) ~offset:0 ~len:2000)
          = Bytes.to_string reference))

(* ------------------------------------------------------------------ *)
(* Guest FS: random op sequences vs a reference map, across remounts *)

type fs_op =
  | Write of int * int * char (* file index, len, fill *)
  | Append of int * int * char
  | Delete of int
  | Sync
  | Remount

let fs_op_gen =
  QCheck.Gen.(
    let* tag = int_range 0 9 in
    let* file = int_range 0 3 in
    let* len = int_range 1 5000 in
    let* ch = printable in
    return
      (match tag with
      | 0 | 1 | 2 -> Write (file, len, ch)
      | 3 | 4 -> Append (file, len, ch)
      | 5 -> Delete file
      | 6 | 7 | 8 -> Sync
      | _ -> Remount))

let pp_fs_op = function
  | Write (f, l, c) -> Fmt.str "write f%d %d %c" f l c
  | Append (f, l, c) -> Fmt.str "append f%d %d %c" f l c
  | Delete f -> Fmt.str "delete f%d" f
  | Sync -> "sync"
  | Remount -> "remount"

let prop_guest_fs_matches_reference =
  let gen = QCheck.Gen.(list_size (int_range 1 25) fs_op_gen) in
  QCheck.Test.make ~name:"guest fs: random ops match reference across remounts" ~count:60
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_fs_op ops)) gen)
    (fun ops ->
      let dev = Block_dev.in_memory ~capacity:(Size.mib_n 8) in
      let fs = ref (Guest_fs.format dev) in
      Guest_fs.sync !fs;
      (* [synced] is what a remount must see; [live] is the page-cache
         view. *)
      let live : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let synced = ref [] in
      let path i = Fmt.str "/f%d" i in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Write (f, len, ch) ->
              Hashtbl.replace live (path f) (String.make len ch);
              Guest_fs.write_file !fs ~path:(path f) (Payload.of_string (String.make len ch))
          | Append (f, len, ch) ->
              let prev = Option.value ~default:"" (Hashtbl.find_opt live (path f)) in
              Hashtbl.replace live (path f) (prev ^ String.make len ch);
              Guest_fs.append_file !fs ~path:(path f) (Payload.of_string (String.make len ch))
          | Delete f ->
              if Hashtbl.mem live (path f) then begin
                Hashtbl.remove live (path f);
                Guest_fs.delete_file !fs ~path:(path f)
              end
          | Sync ->
              Guest_fs.sync !fs;
              synced := Hashtbl.fold (fun k v acc -> (k, v) :: acc) live []
          | Remount ->
              (* Unsynced changes are lost, like a crash + snapshot. *)
              fs := Guest_fs.mount dev;
              Hashtbl.reset live;
              List.iter (fun (k, v) -> Hashtbl.replace live k v) !synced)
        ops;
      (* Final check: every live file reads back exactly. *)
      Hashtbl.iter
        (fun path content ->
          let got = Payload.to_string (Guest_fs.read_file !fs ~path) in
          if got <> content then ok := false)
        live;
      Alcotest.(check bool) "files match" true !ok;
      !ok)

(* ------------------------------------------------------------------ *)
(* BlobSeer invariant: repository bytes equal the sum of distinct chunks
   referenced by all live versions (conservation of storage). *)

let prop_repository_conservation =
  QCheck.Test.make ~name:"blobseer: repository bytes = distinct referenced chunk bytes"
    ~count:30
    (QCheck.make (writes_gen ~ops:10 ~space:4000 ~max_len:1000))
    (fun ops ->
      let rig = make_rig ~stripe:256 () in
      let host, _ = rig.nodes.(0) in
      run rig (fun () ->
          let blob = Client.create_blob rig.service ~from:host ~capacity:4000 in
          List.iter
            (fun (offset, len, ch) ->
              ignore (Client.write blob ~from:host ~offset (Payload.of_string (String.make len ch))))
            ops;
          Client.repository_bytes rig.service = Client.distinct_bytes blob))

let () =
  Alcotest.run "properties"
    [
      ( "oracles",
        List.map
          (QCheck_alcotest.to_alcotest ~verbose:false)
          [
            prop_qcow2_matches_reference;
            prop_qcow2_snapshot_immutable;
            prop_mirror_commit_restores_reference;
            prop_mirror_uncommitted_writes_roll_back;
            prop_guest_fs_matches_reference;
            prop_repository_conservation;
          ] );
    ]
