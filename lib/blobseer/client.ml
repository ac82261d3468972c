open Simcore
open Netsim

(* Digest-work accounting for one deployment: chunks whose commit-path
   digest was computed from content bytes (digested), reused from a carried
   hint (cached), or never needed at all (skipped — clean rewrites caught by
   a hint or at the mirror). *)
type digest_stats = {
  chunks_digested : int;
  chunks_cached : int;
  chunks_skipped : int;
  bytes_digested : int;
  bytes_cached : int;
  bytes_skipped : int;
}

let empty_digest_stats =
  {
    chunks_digested = 0;
    chunks_cached = 0;
    chunks_skipped = 0;
    bytes_digested = 0;
    bytes_cached = 0;
    bytes_skipped = 0;
  }

type t = {
  engine : Engine.t;
  net : Net.t;
  params : Types.params;
  vm : Version_manager.t;
  pm : Provider_manager.t;
  md : Metadata_service.t;
  mutable integrity_failures : int;
  mutable next_serial : int;
  mutable dstats : digest_stats;
}

type blob = { service : t; info : Version_manager.blob_info }

(* Observability: repository traffic accounting, mirroring [write_stats]
   into the global metrics registry so every experiment's --obs snapshot
   reports commit-path volume without per-experiment code. *)
let m_chunks_shipped = Obs.Metrics.counter ~component:"blob" ~name:"chunks_shipped"
let m_chunks_deduped = Obs.Metrics.counter ~component:"blob" ~name:"chunks_deduped"
let m_chunks_suppressed = Obs.Metrics.counter ~component:"blob" ~name:"chunks_suppressed"
let m_bytes_shipped = Obs.Metrics.counter ~component:"blob" ~name:"bytes_shipped"
let m_bytes_deduped = Obs.Metrics.counter ~component:"blob" ~name:"bytes_deduped"
let m_bytes_suppressed = Obs.Metrics.counter ~component:"blob" ~name:"bytes_suppressed"
let m_read_failovers = Obs.Metrics.counter ~component:"blob" ~name:"read_failovers"
let m_read_retry_rounds = Obs.Metrics.counter ~component:"blob" ~name:"read_retry_rounds"
let m_read_backoff = Obs.Metrics.counter ~component:"blob" ~name:"read_backoff_s"

(* Digest-tax observability (DESIGN.md §16): how much commit-path digest
   work ran against content bytes vs. was served by carried digests. *)
let m_digest_chunks_digested = Obs.Metrics.counter ~component:"blob" ~name:"digest_chunks_digested"
let m_digest_chunks_cached = Obs.Metrics.counter ~component:"blob" ~name:"digest_chunks_cached"
let m_digest_chunks_skipped = Obs.Metrics.counter ~component:"blob" ~name:"digest_chunks_skipped"
let m_digest_bytes_digested = Obs.Metrics.counter ~component:"blob" ~name:"digest_bytes_digested"
let m_digest_bytes_cached = Obs.Metrics.counter ~component:"blob" ~name:"digest_bytes_cached"
let m_digest_bytes_skipped = Obs.Metrics.counter ~component:"blob" ~name:"digest_bytes_skipped"
let m_merkle_hashes = Obs.Metrics.counter ~component:"blob" ~name:"merkle_node_hashes"
let m_merkle_reuses = Obs.Metrics.counter ~component:"blob" ~name:"merkle_node_reuses"

let with_merkle_metrics f =
  let h0, r0 = Segment_tree.merkle_counters () in
  let r = f () in
  let h1, r1 = Segment_tree.merkle_counters () in
  Obs.Metrics.add m_merkle_hashes (float_of_int (h1 - h0));
  Obs.Metrics.add m_merkle_reuses (float_of_int (r1 - r0));
  r

(* ------------------------------------------------------------------ *)
(* Live-reference views for the compactor's sweeps and recovery *)

let live_chunk_refs t =
  let refs = Hashtbl.create 1024 in
  Version_manager.iter_live_trees t.vm (fun ~blob:_ ~version:_ tr ->
      Segment_tree.fold_set
        (fun _ (desc : Types.chunk_desc) () ->
          List.iter
            (fun (r : Types.replica) ->
              let key = (r.provider, r.chunk) in
              Hashtbl.replace refs key (1 + Option.value ~default:0 (Hashtbl.find_opt refs key)))
            desc.replicas)
        tr ());
  refs

(* Live logical state per content digest: number of distinct descriptor
   serials carrying it across the surviving trees, plus the size and an
   exemplar replica set (the first encountered in sorted (blob, version)
   order, so the result is deterministic). This is the ground truth the
   dedup index is reconciled to after retention drops versions. *)
let live_digest_refs t =
  let seen : (int64 * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let acc : (int64, int * int * Types.replica list) Hashtbl.t = Hashtbl.create 1024 in
  Version_manager.iter_live_trees t.vm (fun ~blob:_ ~version:_ tr ->
      Segment_tree.fold_set
        (fun _ (desc : Types.chunk_desc) () ->
          if not (Hashtbl.mem seen (desc.digest, desc.serial)) then begin
            Hashtbl.replace seen (desc.digest, desc.serial) ();
            match Hashtbl.find_opt acc desc.digest with
            | Some (refs, size, replicas) ->
                Hashtbl.replace acc desc.digest (refs + 1, size, replicas)
            | None -> Hashtbl.replace acc desc.digest (1, desc.size, desc.replicas)
          end)
        tr ());
  Hashtbl.fold (fun digest v l -> (digest, v) :: l) acc [] (* lint: allow hashtbl-order — sorted below *)
  |> List.sort (fun (d1, _) (d2, _) -> Int64.compare d1 d2)

(* Deployment durability audit: replicas of a chunk must sit on pairwise
   distinct hosts (a single machine crash may never eat every copy), the
   checksum recorded provider-side at write time must agree with the
   descriptor's digest for every reachable replica (the end-to-end
   integrity contract — recorded metadata is compared, not payload bytes,
   so deliberately corrupted test state does not trip teardown), each
   dedup index entry's logical refcount must equal the live distinct
   serials carrying its digest (0 for an entry registered by a write
   whose publication never landed), and both metadata-plane journals must
   be quiescent: a pending intent at teardown is a half-published commit
   nobody recovered. *)
let audit t =
  let v invariant fmt = Engine.violation ~subject:"blobseer" invariant fmt in
  let site_violations = ref [] in
  let seen_descs : (Types.chunk_desc, unit) Hashtbl.t = Hashtbl.create 256 in
  Version_manager.iter_live_trees t.vm (fun ~blob ~version tree ->
      Segment_tree.fold_set
        (fun index (desc : Types.chunk_desc) () ->
          if not (Hashtbl.mem seen_descs desc) then begin
            Hashtbl.replace seen_descs desc ();
            let where = Fmt.str "blob %d v%d chunk %d" blob version index in
            let provider (r : Types.replica) = Provider_manager.provider t.pm r.provider in
            let hosts =
              List.map (fun r -> Net.host_id (Data_provider.host (provider r))) desc.replicas
            in
            if List.length (List.sort_uniq Int.compare hosts) <> List.length hosts then
              site_violations :=
                v "replicas-distinct-hosts" "%s: replicas share a host (providers %a)" where
                  Fmt.(list ~sep:comma int)
                  (List.map (fun (r : Types.replica) -> r.provider) desc.replicas)
                :: !site_violations;
            List.iter
              (fun (r : Types.replica) ->
                let store = Data_provider.store (provider r) in
                if
                  Data_provider.is_alive (provider r)
                  && Storage.Content_store.mem store r.chunk
                  && Storage.Content_store.recorded_digest store r.chunk <> desc.digest
                then
                  site_violations :=
                    v "checksum-metadata" "%s: provider %d recorded digest %Lx, descriptor %Lx"
                      where r.provider
                      (Storage.Content_store.recorded_digest store r.chunk)
                      desc.digest
                    :: !site_violations)
              desc.replicas
          end)
        tree ());
  let live = Hashtbl.of_seq (List.to_seq (live_digest_refs t)) in
  let dedup_violations =
    List.filter_map
      (fun (digest, refs, _size, _replicas) ->
        let n = match Hashtbl.find_opt live digest with Some (n, _, _) -> n | None -> 0 in
        if refs <> n then
          Some (v "dedup-refcount" "digest %Lx: index refcount %d, %d live reference(s)" digest refs n)
        else None)
      (Dedup_index.view (Provider_manager.dedup_index t.pm))
  in
  (* A fail-stopped version manager (a site disaster nobody will ever
     recover) legitimately holds pending intents forever — quiescence is
     only owed by services still alive to recover them. *)
  let journal =
    let n = Version_manager.journal_pending t.vm in
    if n <> 0 && Version_manager.is_alive t.vm then
      [ v "journal-quiescent" "version manager journal holds %d pending intent(s)" n ]
    else []
  in
  List.rev !site_violations @ dedup_violations @ journal @ Metadata_service.audit t.md

let deploy engine net ~(params : Types.params) ~version_manager_host ~provider_manager_host
    ~metadata_hosts ~data_providers =
  if data_providers = [] then invalid_arg "Client.deploy: no data providers";
  if params.replication > List.length data_providers then
    invalid_arg "Client.deploy: replication exceeds provider count";
  let vm =
    Version_manager.create engine net ~host:version_manager_host
      ~publish_cost:params.publish_cost
  in
  let pm =
    Provider_manager.create engine net ~host:provider_manager_host
      ~allocate_cost:params.allocate_cost
  in
  let md =
    Metadata_service.create engine net ~hosts:metadata_hosts
  in
  List.iteri
    (fun i (host, disk) ->
      Provider_manager.register pm
        (Data_provider.create engine net ~host ~disk
           ~request_overhead:params.request_overhead
           ~name:(Fmt.str "provider.%d" i)))
    data_providers;
  let t =
    {
      engine;
      net;
      params;
      vm;
      pm;
      md;
      integrity_failures = 0;
      next_serial = 0;
      dstats = empty_digest_stats;
    }
  in
  Version_manager.set_dedup_index vm (Provider_manager.dedup_index pm);
  Engine.register_audit engine (fun () -> audit t);
  t

(* Descriptor identity: distinguishes descriptors that reference the same
   physical replicas through the dedup index (see {!Types.chunk_desc}).
   Minting order follows the deterministic fiber schedule. *)
let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let engine t = t.engine
let params t = t.params
let data_provider t i = Provider_manager.provider t.pm i
let data_providers t = Provider_manager.providers t.pm
let version_manager t = t.vm
let metadata_service t = t.md
let provider_manager t = t.pm
let integrity_failures t = t.integrity_failures
let dedup_stats t = Dedup_index.stats (Provider_manager.dedup_index t.pm)
let digest_stats t = t.dstats

let note_digested t size =
  t.dstats <-
    {
      t.dstats with
      chunks_digested = t.dstats.chunks_digested + 1;
      bytes_digested = t.dstats.bytes_digested + size;
    };
  Obs.Metrics.incr m_digest_chunks_digested;
  Obs.Metrics.add m_digest_bytes_digested (float_of_int size)

let note_cached t size =
  t.dstats <-
    {
      t.dstats with
      chunks_cached = t.dstats.chunks_cached + 1;
      bytes_cached = t.dstats.bytes_cached + size;
    };
  Obs.Metrics.incr m_digest_chunks_cached;
  Obs.Metrics.add m_digest_bytes_cached (float_of_int size)

let note_digest_skipped t ~chunks ~bytes =
  t.dstats <-
    {
      t.dstats with
      chunks_skipped = t.dstats.chunks_skipped + chunks;
      bytes_skipped = t.dstats.bytes_skipped + bytes;
    };
  Obs.Metrics.add m_digest_chunks_skipped (float_of_int chunks);
  Obs.Metrics.add m_digest_bytes_skipped (float_of_int bytes)

let repository_bytes t =
  Array.fold_left
    (fun acc p -> acc + Data_provider.stored_bytes p)
    0 (data_providers t)

let create_blob t ~from ~capacity =
  let info =
    Version_manager.create_blob t.vm ~from ~capacity ~stripe_size:t.params.stripe_size
  in
  { service = t; info }

let open_blob t ~from ~id =
  Net.message t.net ~src:from ~dst:from;
  { service = t; info = Version_manager.blob_info t.vm id }

let blob_id b = b.info.Version_manager.blob_id
let capacity b = b.info.Version_manager.capacity
let stripe_size b = b.info.Version_manager.stripe_size
let service b = b.service
let latest_version b ~from = Version_manager.latest b.service.vm ~from (blob_id b)
let versions b = Version_manager.versions b.service.vm ~blob:(blob_id b)

(* Extent of chunk [i]: the last chunk of a blob may be shorter than the
   stripe. Stored chunks are always exactly extent-sized. *)
let chunk_extent b i =
  let stripe = stripe_size b in
  min (capacity b) ((i + 1) * stripe) - (i * stripe)

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let total_chunks b = Size.div_ceil (capacity b) (stripe_size b)

let fetch_tree b ~from ~version =
  let t = b.service in
  let tree = Version_manager.get_tree t.vm ~from ~blob:(blob_id b) ~version in
  tree

(* Replica reading order: prefer one whose provider runs on the reading
   host (free network), then the remaining live ones in descriptor order. *)
let replica_order t ~from (desc : Types.chunk_desc) =
  let live =
    List.filter
      (fun (r : Types.replica) -> Data_provider.is_alive (data_provider t r.provider))
      desc.replicas
  in
  let local, remote =
    List.partition
      (fun (r : Types.replica) ->
        Data_provider.host (data_provider t r.provider) == from)
      live
  in
  local @ remote

(* Chunk reads fail over across surviving replicas: a replica whose
   provider died mid-request (or lost the chunk with its machine, or keeps
   erroring after the provider-side transient retries) is skipped and the
   next one tried. When a whole round finds no working replica the client
   backs off and re-polls liveness — a provider-manager failure report may
   still be propagating — for [read_retries] rounds, the delay doubling
   from [retry_backoff] up to [retry_backoff_cap] seconds. *)
let read_retries = 3
let retry_backoff = 0.05
let retry_backoff_cap = 1.0

let read_chunk_payload b ~from (desc : Types.chunk_desc) =
  let t = b.service in
  let try_replica (r : Types.replica) =
    let provider = data_provider t r.provider in
    match Data_provider.read_chunk provider ~to_:from r.chunk with
    | payload ->
        (* End-to-end integrity: verify against the digest the writer put
           in the descriptor. A mismatch is a silently corrupted replica —
           treated exactly like a dead one: skip and fail over. *)
        if Payload.digest payload = desc.digest then Some payload
        else begin
          t.integrity_failures <- t.integrity_failures + 1;
          Obs.Metrics.incr m_read_failovers;
          Trace.emit t.engine ~component:"blobseer.client"
            "read failover: checksum mismatch at %s" (Data_provider.name provider);
          None
        end
    | exception (Types.Provider_down _ | Faults.Injected_error _ | Not_found) ->
        Obs.Metrics.incr m_read_failovers;
        Trace.emit t.engine ~component:"blobseer.client" "read failover: replica at %s failed"
          (Data_provider.name provider);
        None
  in
  let rec round n =
    match List.find_map try_replica (replica_order t ~from desc) with
    | Some payload -> payload
    | None ->
        if n >= read_retries then raise (Types.Provider_down "all replicas failed")
        else begin
          let delay = Float.min retry_backoff_cap (retry_backoff *. float_of_int (1 lsl n)) in
          Obs.Metrics.incr m_read_retry_rounds;
          Obs.Metrics.add m_read_backoff delay;
          Engine.sleep t.engine delay;
          round (n + 1)
        end
  in
  round 0

(* Content that chunk [i] of [tree] currently holds (zeros if unwritten). *)
let current_chunk_content b ~from tree i =
  match Segment_tree.get tree i with
  | None -> Payload.zero (chunk_extent b i)
  | Some desc -> read_chunk_payload b ~from desc

let read b ~from ~version ~offset ~len =
  if offset < 0 || len < 0 || offset + len > capacity b then
    invalid_arg "Client.read: range out of bounds";
  let t = b.service in
  let tree = fetch_tree b ~from ~version in
  if len = 0 then Payload.zero 0
  else begin
    let stripe = stripe_size b in
    let first = offset / stripe and last = (offset + len - 1) / stripe in
    let count = last - first + 1 in
    (* Metadata path: the client walks ~count leaves plus the path down. *)
    Metadata_service.fetch_nodes t.md ~to_:from (count + log2_ceil (total_chunks b));
    let chunk_indices = List.init count (fun k -> first + k) in
    let parts =
      Parallel.map_windowed t.engine ~window:t.params.read_window
        (fun i -> current_chunk_content b ~from tree i)
        chunk_indices
    in
    let whole = Payload.concat parts in
    Payload.sub whole ~pos:(offset - (first * stripe)) ~len
  end

(* [overlay base ~at patch] splices [patch] over [base] at offset [at]. *)
let overlay base ~at patch =
  let plen = Payload.length patch in
  Payload.concat
    [
      Payload.sub base ~pos:0 ~len:at;
      patch;
      Payload.sub base ~pos:(at + plen) ~len:(Payload.length base - at - plen);
    ]

type write_stats = {
  chunks_total : int;
  chunks_shipped : int;
  chunks_deduped : int;
  chunks_suppressed : int;
  bytes_shipped : int;
  bytes_deduped : int;
  bytes_suppressed : int;
}

let empty_write_stats =
  {
    chunks_total = 0;
    chunks_shipped = 0;
    chunks_deduped = 0;
    chunks_suppressed = 0;
    bytes_shipped = 0;
    bytes_deduped = 0;
    bytes_suppressed = 0;
  }

let add_write_stats a b =
  {
    chunks_total = a.chunks_total + b.chunks_total;
    chunks_shipped = a.chunks_shipped + b.chunks_shipped;
    chunks_deduped = a.chunks_deduped + b.chunks_deduped;
    chunks_suppressed = a.chunks_suppressed + b.chunks_suppressed;
    bytes_shipped = a.bytes_shipped + b.bytes_shipped;
    bytes_deduped = a.bytes_deduped + b.bytes_deduped;
    bytes_suppressed = a.bytes_suppressed + b.bytes_suppressed;
  }

(* Store [content] on every provider of [placement], replicas of one chunk
   in parallel to distinct providers. *)
let ship_replicas t ~from content placement =
  Parallel.map_windowed t.engine ~window:(List.length placement)
    (fun provider_index ->
      let provider = data_provider t provider_index in
      let chunk = Data_provider.write_chunk provider ~from content in
      ({ provider = provider_index; chunk } : Types.replica))
    placement

(* The pipelined dedup-aware write core. Each job is (chunk index, thunk
   producing the full extent-sized chunk content); jobs stream through the
   client's write window, so for one chunk the content production (e.g. a
   local-disk read on the commit path), the digest, the dedup lookup and
   the replica writes overlap with other chunks' stages. Per chunk:

   - with [suppress_clean], content whose digest equals the base version's
     descriptor (a clean rewrite) publishes nothing at all;
   - with [params.dedup], the digest is resolved at the provider manager
     in the control round trip that would otherwise allocate a placement:
     a hit references the existing replicas (zero bytes moved), a miss
     writes the placement and registers the fresh replicas, releasing the
     in-flight claim on failure so concurrent identical writers retry.

   With [hints] (chunk index → digest of the content the thunk will
   produce, carried across epochs by the mirror's digest cache), hinted
   chunks resolve suppression and dedup from the cached digest without
   producing content: clean rewrites are skipped outright, dedup lookups
   batch into a single provider-manager round trip, and only chunks that
   must physically ship run their thunk — with the produced content
   verified against the hint before it is stored. Contended digests
   ([Batch_busy]) and unhinted chunks take the blocking per-chunk path.

   Returns the minted descriptors (absent for suppressed chunks) and the
   shipped/deduped/suppressed accounting. *)
let write_chunk_core b ~from ~base_tree ~suppress_clean ~hints jobs =
  let t = b.service in
  let descs : (int, Types.chunk_desc) Hashtbl.t = Hashtbl.create (List.length jobs) in
  let shipped = ref 0 and deduped = ref 0 and suppressed = ref 0 in
  let shipped_b = ref 0 and deduped_b = ref 0 and suppressed_b = ref 0 in
  let finish_desc i ~size ~digest replicas =
    Hashtbl.replace descs i { Types.serial = fresh_serial t; size; digest; replicas }
  in
  let outcome o = Obs.Span.add_attr t.engine "outcome" (Obs.Record.Str o) in
  let note_suppressed size =
    incr suppressed;
    suppressed_b := !suppressed_b + size;
    Obs.Metrics.incr m_chunks_suppressed;
    Obs.Metrics.add m_bytes_suppressed (float_of_int size)
  in
  let note_deduped size =
    incr deduped;
    deduped_b := !deduped_b + size;
    Obs.Metrics.incr m_chunks_deduped;
    Obs.Metrics.add m_bytes_deduped (float_of_int size)
  in
  let note_shipped size =
    incr shipped;
    shipped_b := !shipped_b + size;
    Obs.Metrics.incr m_chunks_shipped;
    Obs.Metrics.add m_bytes_shipped (float_of_int size)
  in
  let clean_by_digest i ~size digest =
    suppress_clean
    &&
    match Segment_tree.get base_tree i with
    | Some (d : Types.chunk_desc) -> d.digest = digest && d.size = size
    | None -> digest = Payload.digest (Payload.zero size)
  in
  (* Blocking per-chunk path. [digest], when given, is a carried hint: the
     produced content is verified against it (an O(1) memo check when the
     mirror's stored payload flows through unchanged) instead of being
     digested fresh. *)
  let one ?digest (i, produce) () =
    let content = produce () in
    let size = Payload.length content in
    if size <> chunk_extent b i then invalid_arg "Client: chunk content size mismatch";
    let digest =
      match digest with
      | Some d ->
          if Payload.digest content <> d then
            invalid_arg "Client: digest hint does not match produced content";
          note_cached t size;
          d
      | None ->
          note_digested t size;
          Payload.digest content
    in
    if clean_by_digest i ~size digest then begin
      note_suppressed size;
      outcome "clean"
    end
    else if t.params.dedup then begin
      match
        Provider_manager.resolve_or_allocate t.pm ~from ~digest ~size
          ~replication:t.params.replication ()
      with
      | Provider_manager.Dedup replicas ->
          note_deduped size;
          outcome "dedup";
          finish_desc i ~size ~digest replicas
      | Provider_manager.Fresh placement ->
          let replicas =
            try ship_replicas t ~from content placement
            with e ->
              (* Release the claim so writers waiting on this digest stop
                 blocking and retry (one of them claims). *)
              Provider_manager.abandon_dedup t.pm ~digest;
              raise e
          in
          Provider_manager.commit_dedup t.pm ~digest ~size ~replicas;
          note_shipped size;
          outcome "shipped";
          finish_desc i ~size ~digest replicas
    end
    else begin
      let placement =
        List.hd
          (Provider_manager.allocate t.pm ~from ~count:1 ~replication:t.params.replication ())
      in
      let replicas = ship_replicas t ~from content placement in
      note_shipped size;
      outcome "shipped";
      finish_desc i ~size ~digest replicas
    end
  in
  (* Hinted chunk holding a batch-claimed placement: produce, verify against
     the hint, ship. The claim is already held, so a failure anywhere in
     there (a local-disk error in [produce] included) must release it, or
     every later writer of the digest blocks on it forever. *)
  let ship_claimed ~digest ~placement (i, produce) () =
    let size = chunk_extent b i in
    let replicas =
      try
        let content = produce () in
        if Payload.length content <> size || Payload.digest content <> digest then
          invalid_arg "Client: digest hint does not match produced content";
        note_cached t size;
        ship_replicas t ~from content placement
      with e ->
        Provider_manager.abandon_dedup t.pm ~digest;
        raise e
    in
    Provider_manager.commit_dedup t.pm ~digest ~size ~replicas;
    note_shipped size;
    outcome "shipped";
    finish_desc i ~size ~digest replicas
  in
  let hint_tbl : (int, int64) Hashtbl.t = Hashtbl.create (List.length hints) in
  if t.params.digest_cache then List.iter (fun (i, d) -> Hashtbl.replace hint_tbl i d) hints;
  (* Phase 1 — hinted chunks: suppress clean rewrites from the hint alone
     (no produce, no digest) and collect the rest for one batched dedup
     resolution. Unhinted chunks go straight to the windowed pipeline. *)
  let pending = ref [] and lookups = ref [] in
  List.iter
    (fun ((i, _) as job) ->
      match Hashtbl.find_opt hint_tbl i with
      | None -> pending := `Plain job :: !pending
      | Some digest ->
          let size = chunk_extent b i in
          if clean_by_digest i ~size digest then begin
            note_digest_skipped t ~chunks:1 ~bytes:size;
            note_suppressed size;
            outcome "clean"
          end
          else if t.params.dedup then lookups := (job, digest) :: !lookups
          else pending := `Hinted (job, digest) :: !pending)
    jobs;
  let lookups = List.rev !lookups in
  (* Phase 2 — one control round trip resolves every hinted digest. *)
  let outcomes =
    match lookups with
    | [] -> []
    | _ ->
        Provider_manager.resolve_many t.pm ~from
          ~chunks:(List.map (fun ((i, _), digest) -> (digest, chunk_extent b i)) lookups)
          ~replication:t.params.replication ()
  in
  List.iter2
    (fun ((i, _) as job, digest) oc ->
      match oc with
      | Provider_manager.Batch_dedup replicas ->
          (* Dedup hit on the carried digest: no produce, no payload read. *)
          let size = chunk_extent b i in
          note_cached t size;
          note_deduped size;
          outcome "dedup";
          finish_desc i ~size ~digest replicas
      | Provider_manager.Batch_fresh placement ->
          pending := `Ship (job, digest, placement) :: !pending
      | Provider_manager.Batch_busy ->
          (* Contended digest: retry through the blocking per-chunk path,
             which never holds one claim while waiting on another. *)
          pending := `Hinted (job, digest) :: !pending)
    lookups outcomes;
  (* Phase 3 — everything that needs content runs through the write window:
     content production, digest verification and replica shipping of
     different chunks overlap. *)
  let work =
    List.map
      (function
        | `Plain job -> one job
        | `Hinted (job, digest) -> one ~digest job
        | `Ship (job, digest, placement) -> ship_claimed ~digest ~placement job)
      (List.rev !pending)
  in
  Parallel.windowed t.engine ~window:t.params.write_window work;
  ( descs,
    {
      chunks_total = List.length jobs;
      chunks_shipped = !shipped;
      chunks_deduped = !deduped;
      chunks_suppressed = !suppressed;
      bytes_shipped = !shipped_b;
      bytes_deduped = !deduped_b;
      bytes_suppressed = !suppressed_b;
    } )

(* Fold minted descriptors into the base tree (one set_range per contiguous
   range of touched chunks), charge the metadata commit and publish. *)
let publish_descs b ~from ~base ~base_tree descs =
  let t = b.service in
  let chunk_ids = Hashtbl.fold (fun i _ acc -> i :: acc) descs [] |> List.sort Int.compare in
  let rec ranges = function
    | [] -> []
    | i :: rest ->
        let rec extend j = function
          | k :: more when k = j + 1 -> extend k more
          | more -> (j, more)
        in
        let j, more = extend i rest in
        (i, j) :: ranges more
  in
  let tree, created =
    List.fold_left
      (fun (tree, created) (lo, hi) ->
        let leaves = Array.init (hi - lo + 1) (fun k -> Some (Hashtbl.find descs (lo + k))) in
        let tree, c = Segment_tree.set_range tree ~start:lo leaves in
        (tree, created + c))
      (base_tree, 0) (ranges chunk_ids)
  in
  if created > 0 then
    Obs.Span.with_ t.engine ~component:"blob" ~name:"blob.meta.commit"
      ~attrs:[ ("nodes", Obs.Record.Int created) ]
      (fun () -> Metadata_service.commit_nodes t.md ~from created);
  Version_manager.publish t.vm ~from ~blob:(blob_id b) ~base tree

(* Store [payload] at [offset] and publish it as a new version. Each
   touched chunk takes its slice, overlaid on the chunk's old content when
   the slice is partial. With [params.dedup] each chunk's digest is
   resolved at the provider manager before placement, so already-stored
   content references the existing replicas and ships zero bytes; chunks
   stream through the client write window. *)
let write b ~from ~offset payload =
  let t = b.service in
  let len = Payload.length payload in
  if offset < 0 || offset + len > capacity b then
    invalid_arg "Client.write: range out of bounds";
  let base = latest_version b ~from in
  let base_tree = fetch_tree b ~from ~version:base in
  if len = 0 then Version_manager.publish t.vm ~from ~blob:(blob_id b) ~base base_tree
  else begin
    let stripe = stripe_size b in
    let content_for i () =
      let cstart = i * stripe in
      let extent = chunk_extent b i in
      let wstart = max cstart offset and wend = min (cstart + extent) (offset + len) in
      let slice = Payload.sub payload ~pos:(wstart - offset) ~len:(wend - wstart) in
      if wstart = cstart && wend - wstart = extent then slice
      else overlay (current_chunk_content b ~from base_tree i) ~at:(wstart - cstart) slice
    in
    let first = offset / stripe and last = (offset + len - 1) / stripe in
    let jobs = List.init (last - first + 1) (fun k -> (first + k, content_for (first + k))) in
    let descs, _stats = write_chunk_core b ~from ~base_tree ~suppress_clean:false ~hints:[] jobs in
    publish_descs b ~from ~base ~base_tree descs
  end

let write_chunks b ~from ?base ?(suppress_clean = false) ?(hints = []) jobs =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= total_chunks b then invalid_arg "Client.write_chunks: chunk out of range")
    jobs;
  let rec check_dups = function
    | i :: (j :: _ as rest) ->
        if i = j then invalid_arg "Client.write_chunks: duplicate chunk";
        check_dups rest
    | _ -> ()
  in
  check_dups (List.sort Int.compare (List.map fst jobs));
  let engine = b.service.engine in
  let base, base_tree =
    Obs.Span.with_ engine ~component:"blob" ~name:"blob.meta" (fun () ->
        let base = match base with Some v -> v | None -> latest_version b ~from in
        (base, fetch_tree b ~from ~version:base))
  in
  let descs, stats =
    Obs.Span.with_ engine ~component:"blob" ~name:"blob.write"
      ~attrs:[ ("chunks", Obs.Record.Int (List.length jobs)) ]
      (fun () ->
        let d0 = b.service.dstats in
        let ((_, stats) as r) = write_chunk_core b ~from ~base_tree ~suppress_clean ~hints jobs in
        let d1 = b.service.dstats in
        Obs.Span.add_attr engine "bytes_shipped" (Obs.Record.Bytes stats.bytes_shipped);
        Obs.Span.add_attr engine "bytes_deduped" (Obs.Record.Bytes stats.bytes_deduped);
        Obs.Span.add_attr engine "bytes_suppressed" (Obs.Record.Bytes stats.bytes_suppressed);
        Obs.Span.add_attr engine "bytes_digested"
          (Obs.Record.Bytes (d1.bytes_digested - d0.bytes_digested));
        Obs.Span.add_attr engine "bytes_digest_cached"
          (Obs.Record.Bytes (d1.bytes_cached - d0.bytes_cached));
        Obs.Span.add_attr engine "bytes_digest_skipped"
          (Obs.Record.Bytes (d1.bytes_skipped - d0.bytes_skipped));
        r)
  in
  let version =
    Obs.Span.with_ engine ~component:"blob" ~name:"blob.publish" (fun () ->
        publish_descs b ~from ~base ~base_tree descs)
  in
  (version, stats)

let clone b ~from ~version =
  let t = b.service in
  let info = Version_manager.clone t.vm ~from ~blob:(blob_id b) ~version in
  { service = t; info }

(* Direct metadata access, free of simulated cost: O(1) in the number of
   live versions and blobs (this sits under the chunk_identity /
   delta_bytes / distinct_bytes hot loops). Raises [Not_found] for
   dropped or never-published versions. *)
let tree b ~version = Version_manager.peek_tree b.service.vm ~blob:(blob_id b) ~version

let merkle_root b ~version =
  with_merkle_metrics (fun () ->
      Segment_tree.merkle_digest ~digest:Types.desc_content_digest (tree b ~version))

let version_bytes b ~version =
  let tr = tree b ~version in
  Segment_tree.fold_set (fun _ (desc : Types.chunk_desc) acc -> acc + desc.size) tr 0

let read_desc b ~from desc = read_chunk_payload b ~from desc

let read_chunk b ~from ~version ~chunk =
  let t = b.service in
  if chunk < 0 || chunk >= total_chunks b then invalid_arg "Client.read_chunk";
  let tr = fetch_tree b ~from ~version in
  Metadata_service.fetch_nodes t.md ~to_:from (1 + log2_ceil (total_chunks b));
  current_chunk_content b ~from tr chunk

let chunk_identity b ~version ~chunk =
  match Segment_tree.get (tree b ~version) chunk with
  | Some { Types.replicas = { provider; chunk = id } :: _; _ } ->
      Some ((provider, id), Data_provider.host (data_provider b.service provider))
  | Some _ | None -> None

let delta_bytes b ~base ~version =
  let old_tree = tree b ~version:base in
  let new_tree = tree b ~version in
  List.fold_left
    (fun acc (_, _, fresh) ->
      match (fresh : Types.chunk_desc option) with
      | Some desc -> acc + desc.size
      | None -> acc)
    0
    (Segment_tree.diff_leaves old_tree new_tree)

let distinct_bytes b =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun version ->
      let tr = tree b ~version in
      Segment_tree.fold_set
        (fun _ (desc : Types.chunk_desc) () ->
          List.iter
            (fun (r : Types.replica) -> Hashtbl.replace seen (r.provider, r.chunk) desc.size)
            desc.replicas)
        tr ())
    (versions b);
  Hashtbl.fold (fun _ size acc -> acc + size) seen 0 (* lint: allow hashtbl-order — commutative sum *)
