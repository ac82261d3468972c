(* Bechamel microbenchmarks of the core data structures.

   Usage:
     bench/main.exe                  run every case and print ns/run (and
                                     MiB/s for the digest cases)

   The paper's figures and tables are regenerated by `blobcr_cli run`
   (see EXPERIMENTS.md). *)

open Simcore
open Netsim

let micro () =
  let open Bechamel in
  let open Toolkit in
  let seg_tree_update =
    Test.make ~name:"segment-tree: single-leaf update (8192 chunks)"
      (Staged.stage (fun () ->
           let tree = Blobseer.Segment_tree.create ~chunks:8192 in
           let tree, _ = Blobseer.Segment_tree.set_range tree ~start:0 [| Some 1 |] in
           ignore (Blobseer.Segment_tree.set_range tree ~start:4096 [| Some 2 |])))
  in
  let seg_tree_bulk =
    Test.make ~name:"segment-tree: 256-leaf bulk update"
      (Staged.stage (fun () ->
           let tree = Blobseer.Segment_tree.create ~chunks:8192 in
           ignore
             (Blobseer.Segment_tree.set_range tree ~start:1024
                (Array.init 256 (fun i -> Some i)))))
  in
  (* Each run builds a new payload value, so the per-value memo never
     answers; a [Pattern] run digests by identity, so the pattern cases
     time the segment walk, not a byte fold. *)
  let payload_pattern_digest =
    Test.make ~name:"payload: slice + digest of a fresh 1 MiB pattern"
      (Staged.stage (fun () ->
           let p = Payload.pattern ~seed:1L (Size.mib_n 2) in
           ignore (Payload.digest (Payload.sub p ~pos:12345 ~len:Size.mib))))
  in
  (* One 256 KiB chunk, the unit the commit path digests. *)
  let payload_chunk_digest =
    Test.make ~name:"payload: digest of a fresh 256 KiB pattern (one chunk)"
      (Staged.stage (fun () -> ignore (Payload.digest (Payload.pattern ~seed:2L (256 * Size.kib)))))
  in
  let bytes_data = Bytes.init Size.mib (fun i -> Char.unsafe_chr (i land 0xff)) in
  let payload_bytes_digest =
    Test.make ~name:"payload: digest of a fresh 1 MiB bytes payload"
      (Staged.stage (fun () -> ignore (Payload.digest (Payload.of_bytes bytes_data))))
  in
  (* A 256 KiB chunk of a CM1 summary file: sixteen 16 KiB pattern
     segments of distinct seeds, so sixteen runs. *)
  let summary_segments =
    List.init 16 (fun i -> Payload.pattern ~seed:(Int64.of_int (-1 - i)) (16 * Size.kib))
  in
  let payload_segment_digest =
    Test.make ~name:"payload: digest of 16 distinct 16 KiB pattern segments"
      (Staged.stage (fun () -> ignore (Payload.digest (Payload.concat summary_segments))))
  in
  (* Bytes each case digests per run, for the MiB/s column. *)
  let digested_bytes =
    [ (payload_pattern_digest, Size.mib); (payload_chunk_digest, 256 * Size.kib);
      (payload_bytes_digest, Size.mib);
      (payload_segment_digest, 16 * 16 * Size.kib) ]
    |> List.map (fun (test, bytes) -> ("blobcr-core/" ^ Test.name test, bytes))
  in
  let event_queue =
    Test.make ~name:"event-queue: 1k add+pop"
      (Staged.stage (fun () ->
           let q = Event_queue.create () in
           for i = 0 to 999 do
             Event_queue.add q ~time:(float_of_int ((i * 7919) mod 997)) i
           done;
           while not (Event_queue.is_empty q) do
             ignore (Event_queue.pop q)
           done))
  in
  let engine_fibers =
    Test.make ~name:"engine: 100 fibers x 10 sleeps"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           for i = 0 to 99 do
             ignore
               (Engine.Fiber.spawn e ~name:(string_of_int i) (fun () ->
                    for _ = 1 to 10 do
                      Engine.sleep e 1.0
                    done))
           done;
           Engine.run e))
  in
  (* Every wake-up lands at the current instant, so this case runs the
     queue's same-instant lane, where the 1k add+pop case runs its heap. *)
  let engine_handoff =
    Test.make ~name:"engine: same-instant hand-off (32 fibers)"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           let sem = Engine.Semaphore.create e 1 in
           for _ = 1 to 32 do
             ignore
               (Engine.Fiber.spawn e (fun () ->
                    for _ = 1 to 10 do
                      Engine.Semaphore.with_held sem (fun () -> Engine.yield e)
                    done))
           done;
           Engine.run e))
  in
  (* Sixteen fibers never contend for a token, and their 1 ms sleeps are
     offset so that every timer fires alone. *)
  let engine_uncontended =
    Test.make ~name:"engine: uncontended acquire/release and lone 1 ms sleeps (16 fibers)"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           let sem = Engine.Semaphore.create e 16 in
           for i = 0 to 15 do
             ignore
               (Engine.Fiber.spawn e (fun () ->
                    Engine.sleep e (float_of_int i *. 1e-3 /. 16.0);
                    for _ = 1 to 20 do
                      Engine.Semaphore.acquire sem;
                      Engine.Semaphore.release sem;
                      Engine.sleep e 1e-3
                    done))
           done;
           Engine.run e))
  in
  let net_transfers =
    Test.make ~name:"net: 1000 single-segment transfers between idle hosts"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           let net = Net.create e Net.default_config in
           let a = Net.add_host net ~name:"a" and b = Net.add_host net ~name:"b" in
           ignore
             (Engine.Fiber.spawn e (fun () ->
                  for _ = 1 to 1000 do
                    Net.transfer net ~src:a ~dst:b (64 * Size.kib)
                  done));
           Engine.run e))
  in
  let qcow2_cow =
    Test.make ~name:"qcow2: 64 cluster COW writes (in-sim)"
      (Staged.stage (fun () ->
           let e = Engine.create () in
           let net = Net.create e { Net.default_config with latency = 0.0 } in
           let host = Net.add_host net ~name:"h" in
           let disk = Storage.Disk.create e ~rate:1e12 ~seek:0.0 () in
           let _ =
             Engine.Fiber.spawn e (fun () ->
                 let q =
                   Vdisk.Qcow2.create e ~host ~local_disk:disk
                     ~capacity:(Size.mib_n 64) ~backing:Vdisk.Qcow2.No_backing ~name:"q" ()
                 in
                 for i = 0 to 63 do
                   Vdisk.Qcow2.write q ~offset:(i * 64 * Size.kib)
                     (Payload.pattern ~seed:(Int64.of_int i) (64 * Size.kib))
                 done)
           in
           Engine.run e))
  in
  (* The mirror's chunk store: a 256 MiB image cached chunk by chunk, then
     read back in boot-sized requests that each span four chunks. *)
  let chunk = 256 * Size.kib in
  let chunk_payload = Payload.pattern ~seed:1L chunk in
  let sparse_bytes =
    Test.make ~name:"sparse-bytes: 1024 chunk writes, 256 1 MiB reads"
      (Staged.stage (fun () ->
           let s = Sparse_bytes.create ~block_size:chunk () in
           for i = 0 to 1023 do
             Sparse_bytes.write s ~offset:(i * chunk) chunk_payload
           done;
           for i = 0 to 255 do
             ignore (Sparse_bytes.read s ~offset:(i * Size.mib) ~len:Size.mib)
           done))
  in
  (* CM1's summary file as a BlobCR guest sees it: a 4 MiB log of 256
     records of 16 KiB, one extent each, on a guest file system over a
     mirror with 256 KiB chunks. Each run puts the log back to 4 MiB (page
     cache only), appends one record and syncs, which re-emits every
     extent as a partial-chunk write. *)
  let engine = Engine.create () in
  let in_sim f =
    let result = ref None in
    ignore (Engine.Fiber.spawn engine (fun () -> result := Some (f ())));
    Engine.run engine;
    Option.get !result
  in
  let record i = Payload.pattern ~seed:(Int64.of_int (-1 - i)) (16 * Size.kib) in
  let log_fs, log =
    let net = Net.create engine { Net.default_config with latency = 0.0 } in
    let host = Net.add_host net ~name:"node" in
    let disk = Storage.Disk.create engine ~name:"disk" () in
    let service =
      Blobseer.Client.deploy engine net
        ~params:{ Blobseer.Types.default_params with stripe_size = chunk }
        ~version_manager_host:host ~provider_manager_host:host ~metadata_hosts:[ host ]
        ~data_providers:[ (host, disk) ]
    in
    in_sim (fun () ->
        let capacity = Size.mib_n 16 in
        let base = Blobseer.Client.create_blob service ~from:host ~capacity in
        let v = Blobseer.Client.write base ~from:host ~offset:0 (Payload.zero capacity) in
        let m =
          Vdisk.Mirror.create engine ~host ~local_disk:disk ~base ~base_version:v ~name:"m" ()
        in
        let fs = Vmsim.Guest_fs.format (Vdisk.Mirror.device m) in
        for i = 0 to 255 do
          Vmsim.Guest_fs.append_file fs ~path:"/log" (record i);
          Vmsim.Guest_fs.sync fs
        done;
        (fs, Vmsim.Guest_fs.read_file fs ~path:"/log"))
  in
  let guest_log_sync =
    Test.make
      ~name:"guest-fs: sync of a 4 MiB append-only log after one 16 KiB append (mirror-backed)"
      (Staged.stage (fun () ->
           in_sim (fun () ->
               Vmsim.Guest_fs.write_file log_fs ~path:"/log" log;
               Vmsim.Guest_fs.append_file log_fs ~path:"/log" (record 256);
               Vmsim.Guest_fs.sync log_fs)))
  in
  let tests =
    Test.make_grouped ~name:"blobcr-core"
      [ seg_tree_update; seg_tree_bulk; payload_pattern_digest; payload_chunk_digest;
        payload_bytes_digest; payload_segment_digest; event_queue; engine_fibers; engine_handoff; engine_uncontended;
        net_transfers; qcow2_cow;
        sparse_bytes; guest_log_sync ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Printf.printf "### Microbenchmarks (Bechamel, monotonic clock)\n\n%!";
  let results = analyze (benchmark ()) in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Bechamel.Analyze.OLS.estimates ols with
         | Some [ time ] -> (
             match List.assoc_opt name digested_bytes with
             | Some bytes ->
                 Printf.printf "%-62s %12.1f ns/run %8.0f MiB/s\n%!" name time
                   (float_of_int bytes /. float_of_int Size.mib /. (time *. 1e-9))
             | None -> Printf.printf "%-62s %12.1f ns/run\n%!" name time)
         | _ -> Printf.printf "%-62s (no estimate)\n%!" name);
  print_newline ()

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "bench/main.exe takes no arguments; run experiments with `blobcr_cli run'";
    exit 2
  end;
  micro ()
