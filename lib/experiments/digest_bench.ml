open Simcore
open Blobcr

(* Digest-tax micro-bench: one instance rewrites its whole working region
   every epoch — the classic checkpoint pattern where the application
   dumps its full buffer but only a fraction of it actually changed — and
   COMMITs. Epoch one seeds the image; epoch two is measured: how many
   bytes were digested during the COMMIT itself (the blob.write digest
   tax), how many over the whole epoch (guest writes + commit), and how
   the simulated commit time scales with the dirty fraction. Swept over
   image size x dirty fraction x dedup on/off, plus a digest-cache-off
   baseline that shows the pre-cache cost (~image-size digest work and
   local reads at every commit). *)

type point = {
  image_bytes : int;
  dirty_fraction : float;
  dedup : bool;
  digest_cache : bool;
  commit_time : float;  (** simulated seconds, measured epoch-two commit *)
  commit_digest_bytes : int;  (** bytes digested during the commit itself *)
  total_digest_bytes : int;  (** bytes digested over rewrite + commit *)
  chunks_digested : int;
  chunks_cached : int;
  chunks_skipped : int;
  shipped_bytes : int;
  deduped_bytes : int;
  suppressed_bytes : int;
}

(* Content is a function of (chunk, generation): generation 0 is the
   seeded image, generation [epoch] the changed chunks of that epoch. *)
let chunk_seed ~generation ~chunk =
  Int64.of_int ((((generation * 131) + 0xD16E57) * 65_599) + chunk)

let run_point (scale : Scale.t) ~image_bytes ~fraction ~dedup ~digest_cache () =
  let cal =
    {
      scale.Scale.cal with
      Calibration.blobseer =
        { scale.Scale.cal.Calibration.blobseer with Blobseer.Types.dedup; digest_cache };
    }
  in
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule cal in
  let service = cluster.Cluster.service in
  let stripe = Blobseer.Client.stripe_size cluster.Cluster.base_blob in
  let region = min image_bytes (Blobseer.Client.capacity cluster.Cluster.base_blob) in
  let chunks = max 1 (region / stripe) in
  let changed_count = max 1 (int_of_float (Float.round (fraction *. float_of_int chunks))) in
  Cluster.run cluster (fun () ->
      let engine = cluster.Cluster.engine in
      let node = Cluster.node cluster 0 in
      let mirror =
        Vdisk.Mirror.create engine ~host:node.Cluster.host ~local_disk:node.Cluster.disk
          ~base:cluster.Cluster.base_blob ~base_version:cluster.Cluster.base_version
          ~name:"digest-bench" ()
      in
      (* Full-region rewrite: every chunk is written, only the first
         [changed_count] carry content this epoch changed. *)
      let rewrite ~epoch =
        for c = 0 to chunks - 1 do
          let extent = min stripe (Vdisk.Mirror.capacity mirror - (c * stripe)) in
          let generation = if epoch > 1 && c < changed_count then epoch else 0 in
          Vdisk.Mirror.write mirror ~offset:(c * stripe)
            (Payload.pattern ~seed:(chunk_seed ~generation ~chunk:c) extent)
        done
      in
      rewrite ~epoch:1;
      ignore (Vdisk.Mirror.commit mirror);
      let d0 = Blobseer.Client.digest_stats service in
      let h0 = Payload.hashed_bytes () in
      rewrite ~epoch:2;
      let h1 = Payload.hashed_bytes () in
      let t0 = Engine.now engine in
      ignore (Vdisk.Mirror.commit mirror);
      let commit_time = Engine.now engine -. t0 in
      let h2 = Payload.hashed_bytes () in
      let d1 = Blobseer.Client.digest_stats service in
      let stats = Vdisk.Mirror.last_commit_stats mirror in
      {
        image_bytes = region;
        dirty_fraction = fraction;
        dedup;
        digest_cache;
        commit_time;
        commit_digest_bytes = h2 - h1;
        total_digest_bytes = h2 - h0;
        chunks_digested =
          d1.Blobseer.Client.chunks_digested - d0.Blobseer.Client.chunks_digested;
        chunks_cached = d1.Blobseer.Client.chunks_cached - d0.Blobseer.Client.chunks_cached;
        chunks_skipped = d1.Blobseer.Client.chunks_skipped - d0.Blobseer.Client.chunks_skipped;
        shipped_bytes = stats.Blobseer.Client.bytes_shipped;
        deduped_bytes = stats.Blobseer.Client.bytes_deduped;
        suppressed_bytes = stats.Blobseer.Client.bytes_suppressed;
      })

(* Dedup on/off with the digest cache on (the default), plus one
   cache-off baseline (dedup on) for the before/after contrast. *)
let configs = [ (true, true); (false, true); (true, false) ]
let fractions = [ 0.1; 0.5; 1.0 ]

let run (scale : Scale.t) ~progress =
  List.concat_map
    (fun image_bytes ->
      List.concat_map
        (fun fraction ->
          List.map
            (fun (dedup, digest_cache) ->
              progress
                (Fmt.str "digest-bench: image=%dMiB dirty=%.0f%% dedup=%b cache=%b"
                   (image_bytes / Size.mib) (100.0 *. fraction) dedup digest_cache);
              run_point scale ~image_bytes ~fraction ~dedup ~digest_cache ())
            configs)
        fractions)
    [ scale.Scale.buffer_small; scale.Scale.buffer_large ]

let config_label p =
  Fmt.str "%dMiB/%s/%s" (p.image_bytes / Size.mib)
    (if p.dedup then "dedup" else "nodedup")
    (if p.digest_cache then "cache" else "nocache")

let tables_of points =
  let table name ~title ~y_label y =
    ( name,
      Stats.table ~title ~x_label:"dirty fraction" ~y_label
        (Stats.group ~order:String.compare ~key:config_label ~label:Fun.id
           ~x:(fun p -> p.dirty_fraction) ~y points) )
  in
  [
    table "digest-commit-bytes"
      ~title:"Bytes digested during the COMMIT itself (blob.write digest tax)"
      ~y_label:"bytes" (fun p -> float_of_int p.commit_digest_bytes);
    table "digest-total-bytes"
      ~title:"Bytes digested over the whole epoch (guest rewrite + commit)"
      ~y_label:"bytes" (fun p -> float_of_int p.total_digest_bytes);
    table "digest-commit-time" ~title:"Measured commit completion time (simulated seconds)"
      ~y_label:"seconds" (fun p -> p.commit_time);
    table "digest-shipped" ~title:"Commit bytes physically shipped" ~y_label:"bytes"
      (fun p -> float_of_int p.shipped_bytes);
  ]

let point_json p =
  Printf.sprintf
    "    {\"image_bytes\": %d, \"dirty_fraction\": %.2f, \"dedup\": %b, \
     \"digest_cache\": %b,\n\
    \     \"commit_time_s\": %.6f,\n\
    \     \"commit_digest_bytes\": %d, \"total_digest_bytes\": %d,\n\
    \     \"chunks_digested\": %d, \"chunks_cached\": %d, \"chunks_skipped\": %d,\n\
    \     \"shipped_bytes\": %d, \"deduped_bytes\": %d, \"suppressed_bytes\": %d}"
    p.image_bytes p.dirty_fraction p.dedup p.digest_cache p.commit_time p.commit_digest_bytes
    p.total_digest_bytes p.chunks_digested p.chunks_cached p.chunks_skipped p.shipped_bytes
    p.deduped_bytes p.suppressed_bytes
