open Simcore
open Blobcr

(* Dedup commit-path baseline: N instances over the same base image dirty
   a buffer's worth of chunks and COMMIT concurrently, with the dirty
   content either largely identical across instances (dup-heavy: a gang
   writing near-identical state) or fully distinct (unique). Each
   configuration runs with the content-addressed index enabled and
   disabled; a second commit rewrites the same content unchanged to
   measure clean-rewrite suppression. Restored-image digests are returned
   so callers can assert dedup never changes the bytes read back. *)

type point = {
  dedup : bool;
  workload : string;  (** "dup-heavy" | "unique" *)
  instances : int;
  dirty_bytes_per_instance : int;
  commit_time : float;  (** mean simulated seconds, first commit *)
  rewrite_time : float;  (** mean simulated seconds, clean-rewrite commit *)
  shipped_bytes : int;
  deduped_bytes : int;
  suppressed_bytes : int;
  repository_bytes : int;  (** repository growth over the base image *)
  dedup_hits : int;
  image_digest : int64;  (** combined digest of every restored dirty region *)
}

(* At least half of every instance's dirty chunks carry content shared by
   the whole gang (the acceptance scenario's >= 50%). *)
let dup_fraction = 0.6

let chunk_seed ~workload ~instance ~chunk =
  match workload with
  | `Dup_heavy when float_of_int (chunk mod 10) < dup_fraction *. 10.0 ->
      Int64.of_int ((0xD00D * 65_599) + chunk)
  | _ -> Int64.of_int ((((instance * 31) + 0xBEEF) * 65_599) + chunk)

let workload_name = function `Dup_heavy -> "dup-heavy" | `Unique -> "unique"

let run_point (scale : Scale.t) ~dedup ~workload ~instances () =
  let cal =
    {
      scale.Scale.cal with
      Calibration.blobseer = { scale.Scale.cal.Calibration.blobseer with Blobseer.Types.dedup };
    }
  in
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule cal in
  let service = cluster.Cluster.service in
  let stripe = Blobseer.Client.stripe_size cluster.Cluster.base_blob in
  let dirty_bytes = min scale.Scale.buffer_small (Blobseer.Client.capacity cluster.Cluster.base_blob) in
  let chunks = max 1 (dirty_bytes / stripe) in
  let repo_before = Blobseer.Client.repository_bytes service in
  Cluster.run cluster (fun () ->
      let engine = cluster.Cluster.engine in
      let mirrors =
        List.init instances (fun i ->
            let node = Cluster.node cluster (i mod Cluster.node_count cluster) in
            Vdisk.Mirror.create engine ~host:node.Cluster.host ~local_disk:node.Cluster.disk
              ~base:cluster.Cluster.base_blob ~base_version:cluster.Cluster.base_version
              ~name:(Fmt.str "dedup-bench.%d" i) ())
      in
      let dirty instance mirror =
        for c = 0 to chunks - 1 do
          let extent = min stripe (Vdisk.Mirror.capacity mirror - (c * stripe)) in
          Vdisk.Mirror.write mirror ~offset:(c * stripe)
            (Payload.pattern ~seed:(chunk_seed ~workload ~instance ~chunk:c) extent)
        done
      in
      let commit_round () =
        (* All instances commit concurrently: the pipelined path and the
           in-flight dedup claims are exercised together. *)
        let times = Array.make instances 0.0 in
        Engine.all engine ~name:"commits"
          (List.mapi
             (fun i mirror () ->
               let t0 = Engine.now engine in
               ignore (Vdisk.Mirror.commit mirror);
               times.(i) <- Engine.now engine -. t0)
             mirrors);
        Array.fold_left ( +. ) 0.0 times /. float_of_int instances
      in
      List.iteri dirty mirrors;
      let commit_time = commit_round () in
      (* Rewrite the same content unchanged: every chunk is a clean
         rewrite the digest check should suppress end to end. *)
      List.iteri dirty mirrors;
      let rewrite_time = commit_round () in
      let stats =
        List.fold_left
          (fun acc m -> Blobseer.Client.add_write_stats acc (Vdisk.Mirror.total_commit_stats m))
          Blobseer.Client.empty_write_stats mirrors
      in
      let image_digest =
        List.fold_left
          (fun acc mirror ->
            let image = Option.get (Vdisk.Mirror.checkpoint_image mirror) in
            let version = Blobseer.Client.latest_version image ~from:cluster.Cluster.supervisor_host in
            let restored =
              Blobseer.Client.read image ~from:cluster.Cluster.supervisor_host ~version ~offset:0
                ~len:(chunks * stripe)
            in
            Int64.add (Int64.mul acc 0x100000001B3L) (Payload.digest restored))
          0L mirrors
      in
      let dstats = Blobseer.Client.dedup_stats service in
      {
        dedup;
        workload = workload_name workload;
        instances;
        dirty_bytes_per_instance = chunks * stripe;
        commit_time;
        rewrite_time;
        shipped_bytes = stats.Blobseer.Client.bytes_shipped;
        deduped_bytes = stats.Blobseer.Client.bytes_deduped;
        suppressed_bytes = stats.Blobseer.Client.bytes_suppressed;
        repository_bytes = Blobseer.Client.repository_bytes service - repo_before;
        dedup_hits = dstats.Blobseer.Dedup_index.hits;
        image_digest;
      })

let run (scale : Scale.t) ~progress =
  let instances = max 2 (List.fold_left min max_int scale.Scale.cm1_vm_counts) in
  List.concat_map
    (fun workload ->
      List.map
        (fun dedup ->
          progress
            (Fmt.str "dedup-bench: workload=%s dedup=%b instances=%d" (workload_name workload)
               dedup instances);
          run_point scale ~dedup ~workload ~instances ())
        [ false; true ])
    [ `Dup_heavy; `Unique ]

let tables_of points =
  let table name ~title ~y_label y =
    ( name,
      Stats.table ~title ~x_label:"dedup" ~y_label
        (Stats.group ~key:(fun p -> p.workload) ~label:Fun.id
           ~x:(fun p -> if p.dedup then 1.0 else 0.0)
           ~y points) )
  in
  [
    table "dedup-shipped" ~title:"Commit bytes physically shipped (x: dedup 0=off 1=on)"
      ~y_label:"bytes" (fun p -> float_of_int p.shipped_bytes);
    table "dedup-commit-time"
      ~title:"Mean commit completion time, first checkpoint (simulated seconds)"
      ~y_label:"seconds" (fun p -> p.commit_time);
    table "dedup-repo" ~title:"Repository growth over the base image" ~y_label:"bytes"
      (fun p -> float_of_int p.repository_bytes);
    table "dedup-rewrite-time" ~title:"Mean commit completion time, clean-rewrite checkpoint"
      ~y_label:"seconds" (fun p -> p.rewrite_time);
  ]

let point_json p =
  Printf.sprintf
    "    {\"workload\": %S, \"dedup\": %b, \"instances\": %d,\n\
    \     \"dirty_bytes_per_instance\": %d,\n\
    \     \"commit_time_s\": %.6f, \"rewrite_time_s\": %.6f,\n\
    \     \"shipped_bytes\": %d, \"deduped_bytes\": %d, \"suppressed_bytes\": %d,\n\
    \     \"repository_bytes\": %d, \"dedup_hits\": %d,\n\
    \     \"image_digest\": \"%Lx\"}"
    p.workload p.dedup p.instances p.dirty_bytes_per_instance p.commit_time p.rewrite_time
    p.shipped_bytes p.deduped_bytes p.suppressed_bytes p.repository_bytes p.dedup_hits
    p.image_digest
