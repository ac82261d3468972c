(* Snapshot inspection, shadowing and garbage collection.

   Shows the repository-side features of BlobCR: incremental snapshots
   that share unmodified content (shadowing), checkpoint images that look
   like standalone disk images a cloud client can open and read directly
   (the paper's "inspect and even manually modify" scenario), and the
   compactor reclaiming obsoleted snapshots.

     dune exec examples/snapshot_inspect.exe *)

open Simcore
open Blobcr
open Workloads

let () =
  let cluster = Cluster.build Calibration.quick_test in
  Cluster.run cluster (fun () ->
      let say fmt = Fmt.pr ("  " ^^ fmt ^^ "@.") in
      let inst =
        Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster 0) ~id:"vm0"
      in
      let bench = Synthetic.start inst ~buffer_bytes:(Size.mib_n 2) in

      Fmt.pr "== Incremental snapshots and shadowing ==@.";
      let take i =
        Synthetic.refill bench;
        Synthetic.dump_app ~retain:1 bench;
        let s = Approach.request_checkpoint cluster inst in
        say "checkpoint %d: %a incremental (checkpoint storage now %a)" (i + 1) Size.pp
          (Approach.snapshot_bytes s) Size.pp
          (Approach.storage_total cluster);
        s
      in
      let _snapshots = List.init 3 take in

      (match Approach.request_checkpoint cluster inst with
      | Approach.Blobcr_snapshot { image; version } ->
          let v1 = 1 and v2 = version in
          let t1 = Blobseer.Client.tree image ~version:v1 in
          let t2 = Blobseer.Client.tree image ~version:v2 in
          say "metadata sharing between snapshot v%d and v%d: %d shared tree nodes" v1 v2
            (Blobseer.Segment_tree.shared_nodes t1 t2);

          Fmt.pr "@.== Downloading a checkpoint image as a standalone entity ==@.";
          (* The cloud client host reads the checkpoint image directly from
             the repository — no VM involved — e.g. to inspect files. *)
          let client = (Cluster.node cluster 3).Cluster.host in
          let dev =
            {
              Vdisk.Block_dev.capacity = Blobseer.Client.capacity image;
              read =
                (fun ~offset ~len ->
                  Blobseer.Client.read image ~from:client ~version:v2 ~offset ~len);
              write = (fun ~offset:_ _ -> failwith "read-only inspection");
              flush = (fun () -> ());
            }
          in
          let fs = Vmsim.Guest_fs.mount dev in
          say "mounted snapshot v%d read-only from host %s" v2 (Netsim.Net.host_name client);
          List.iter
            (fun path ->
              if String.length path >= 5 && String.sub path 0 5 = "/ckpt" then
                say "  %s (%a)" path Size.pp (Vmsim.Guest_fs.file_size fs ~path))
            (Vmsim.Guest_fs.list_files fs)
      | _ -> assert false);

      Fmt.pr "@.== Garbage collection ==@.";
      let open Blobseer in
      let before = Client.repository_bytes cluster.Cluster.service in
      (* Keep each blob's newest version only. The compactor deletes a
         chunk one pass after it lost its last reference, so a second pass
         runs the sweep. *)
      let compactor =
        Compactor.create cluster.Cluster.service ~home:cluster.Cluster.supervisor_host
          ~config:{ Compactor.policy = Retention.Keep_last 1 }
      in
      Compactor.scan compactor;
      Compactor.scan compactor;
      let report = Compactor.stats compactor in
      let after = Client.repository_bytes cluster.Cluster.service in
      say "retired %d obsolete versions, deleted %d chunks" report.Compactor.versions_retired
        report.Compactor.chunks_reclaimed;
      say "repository: %a -> %a (reclaimed %a)" Size.pp before Size.pp after Size.pp
        report.Compactor.bytes_reclaimed)
