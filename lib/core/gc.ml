open Storage
open Blobseer

type report = {
  versions_dropped : int;
  chunks_deleted : int;
  bytes_reclaimed : int;
  index_entries_dropped : int;
}

(* The mark-set computations live in {!Client}, shared with the
   compactor's precise sweep. *)

let collect service ?(pins = []) ~keep_last () =
  if keep_last < 1 then invalid_arg "Gc.collect: keep_last must be >= 1";
  let vm = Client.version_manager service in
  (* Retention: drop everything but the newest versions of each blob —
     except pinned (blob, version) pairs. Pins close the GC/rollback race:
     the supervisor pins its committed snapshot sets (it may still roll
     back to them after a fault) and the scrubber pins versions it is
     mid-repair on, so neither can be pruned out from under them.
     Planning is the version manager's pin-aware retention evaluation,
     shared with the background compactor. *)
  let pins = List.map (fun site -> (site, "gc-pin")) pins in
  let dropped = ref 0 in
  List.iter
    (fun blob ->
      let plan =
        Version_manager.retention_plan vm ~blob ~policy:(Retention.Keep_last keep_last) ~pins
      in
      List.iter
        (fun version ->
          Version_manager.drop_version vm ~blob ~version;
          incr dropped)
        plan.Retention.retire)
    (Version_manager.blob_ids vm);
  (* Reconcile the dedup index with the surviving trees: refcounts are
     reset to the live distinct-serial count per digest, and entries no
     live version references are dropped — making their physical chunks
     reclaimable by the sweep below (the index never blocks reclamation
     on its own). *)
  let index_dropped =
    Dedup_index.reconcile
      (Provider_manager.dedup_index (Client.provider_manager service))
      (Client.live_digest_refs service)
  in
  (* Mark... *)
  let live = Client.live_chunk_refs service in
  (* ...and sweep every data provider. *)
  let deleted = ref 0 and reclaimed = ref 0 in
  Array.iteri
    (fun provider_index provider ->
      List.iter
        (fun chunk ->
          if not (Hashtbl.mem live (provider_index, chunk)) then begin
            let bytes =
              Simcore.Payload.length (Content_store.get (Data_provider.store provider) chunk)
            in
            Data_provider.delete_chunk provider chunk;
            incr deleted;
            reclaimed := !reclaimed + bytes
          end)
        (Content_store.ids (Data_provider.store provider)))
    (Client.data_providers service);
  {
    versions_dropped = !dropped;
    chunks_deleted = !deleted;
    bytes_reclaimed = !reclaimed;
    index_entries_dropped = index_dropped;
  }
