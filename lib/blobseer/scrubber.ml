open Simcore
open Netsim
open Storage

type config = { interval : float }

type event =
  | Scan_started of { at : float; pass : int }
  | Repaired of {
      at : float;
      blob : int;
      version : int;
      index : int;
      bytes : int;
      added : int;
      dropped : int;
    }
  | Quorum_failed of { at : float; blob : int; version : int; index : int; good : int }
  | Unrepairable of { at : float; blob : int; version : int; index : int }
  | Scan_finished of {
      at : float;
      pass : int;
      checked : int;
      repaired : int;
      unrepairable : int;
    }

let pp_event ppf = function
  | Scan_started { at; pass } -> Fmt.pf ppf "t=%.3f scan %d started" at pass
  | Repaired { at; blob; version; index; bytes; added; dropped } ->
      Fmt.pf ppf "t=%.3f repaired blob %d v%d chunk %d (%d B, +%d -%d replicas)" at blob
        version index bytes added dropped
  | Quorum_failed { at; blob; version; index; good } ->
      Fmt.pf ppf "t=%.3f quorum failed blob %d v%d chunk %d (%d good)" at blob version index
        good
  | Unrepairable { at; blob; version; index } ->
      Fmt.pf ppf "t=%.3f unrepairable blob %d v%d chunk %d" at blob version index
  | Scan_finished { at; pass; checked; repaired; unrepairable } ->
      Fmt.pf ppf "t=%.3f scan %d finished (%d checked, %d repaired, %d unrepairable)" at pass
        checked repaired unrepairable

type stats = {
  passes : int;
  chunks_checked : int;
  repairs : int;
  repair_bytes : int;
  quorum_failures : int;
  unrepairable : int;
  merkle_clean_versions : int;
}

let m_repairs = Obs.Metrics.counter ~component:"scrub" ~name:"repairs"
let m_repair_bytes = Obs.Metrics.counter ~component:"scrub" ~name:"repair_bytes"
let m_merkle_clean = Obs.Metrics.counter ~component:"scrub" ~name:"merkle_clean_versions"

type t = {
  service : Client.t;
  home : Net.host;
  config : config;
  mutable passes : int;
  mutable chunks_checked : int;
  mutable repairs : int;
  mutable repair_bytes : int;
  mutable quorum_failures : int;
  mutable unrepairable : int;
  mutable merkle_clean_versions : int;
  mutable events_rev : event list;
  mutable bad_sites : (int * int) list; (* (blob, version) with unrepairable chunks *)
  mutable fiber : Engine.fiber option;
}

let create service ~home ?(config = { interval = 5.0 }) () =
  {
    service;
    home;
    config;
    passes = 0;
    chunks_checked = 0;
    repairs = 0;
    repair_bytes = 0;
    quorum_failures = 0;
    unrepairable = 0;
    merkle_clean_versions = 0;
    events_rev = [];
    bad_sites = [];
    fiber = None;
  }

(* Typed (blob, version) ordering for the bad-site list. *)
let compare_site (b1, v1) (b2, v2) =
  match Int.compare b1 b2 with 0 -> Int.compare v1 v2 | c -> c

let engine t = Client.engine t.service
let now t = Engine.now (engine t)
let record t e = t.events_rev <- e :: t.events_rev

let quorum t = ((Client.params t.service).Types.replication / 2) + 1

(* A replica is good when its provider is live, still holds the chunk, the
   stored bytes match the digest recorded at write time, and that record
   matches the descriptor's digest — i.e. the copy is exactly what the
   writer published. Verification is provider-local (no network). *)
let replica_good service (desc : Types.chunk_desc) (r : Types.replica) =
  let p = Client.data_provider service r.provider in
  Data_provider.is_alive p
  && Content_store.mem (Data_provider.store p) r.chunk
  && Content_store.recorded_digest (Data_provider.store p) r.chunk = desc.digest
  && Data_provider.verify_chunk p r.chunk

(* Live replica that is present but fails verification: a silently
   corrupted copy we can delete to reclaim space. *)
let replica_corrupt service (desc : Types.chunk_desc) (r : Types.replica) =
  let p = Client.data_provider service r.provider in
  Data_provider.is_alive p
  && Content_store.mem (Data_provider.store p) r.chunk
  && not (replica_good service desc r)

let transient = function
  | Types.Provider_down _ | Faults.Injected_error _ | Not_found | Disk.Full _ -> true
  | _ -> false

(* Copy the chunk onto [need] fresh providers, sourcing each copy from a
   good replica. Targets are live providers on hosts holding no copy yet,
   tried in ascending index order (deterministic). The transfer is charged
   source-provider → target-host, then written through the target's local
   disk — one network hop per new copy, which is the repair traffic the
   durability sweep reports. *)
let re_replicate t ~good ~need =
  let service = t.service in
  let provider_host i = Net.host_id (Data_provider.host (Client.data_provider service i)) in
  let exclude = ref (List.map (fun (r : Types.replica) -> provider_host r.provider) good) in
  let sources = ref good in
  let fresh = ref [] in
  let n = Array.length (Client.data_providers service) in
  let rec place need target_index =
    if need = 0 || target_index >= n then ()
    else begin
      let target = Client.data_provider service target_index in
      let h = provider_host target_index in
      if (not (Data_provider.is_alive target)) || List.mem h !exclude then
        place need (target_index + 1)
      else begin
        let copied =
          match !sources with
          | [] -> None
          | (src : Types.replica) :: more_sources -> (
              let src_provider = Client.data_provider service src.provider in
              match
                let payload =
                  Data_provider.read_chunk src_provider ~to_:(Data_provider.host target)
                    src.chunk
                in
                Data_provider.write_chunk target ~from:(Data_provider.host target) payload
              with
              | chunk -> Some ({ provider = target_index; chunk } : Types.replica)
              | exception e when transient e ->
                  (* A source or target that errors mid-copy is rotated
                     out / skipped; the next pass retries. *)
                  sources := more_sources @ [ src ];
                  None)
        in
        match copied with
        | Some replica ->
            fresh := replica :: !fresh;
            exclude := h :: !exclude;
            place (need - 1) (target_index + 1)
        | None -> place need (target_index + 1)
      end
    end
  in
  place need 0;
  List.rev !fresh

(* One scrub pass: walk every live (blob, version) tree, verify every
   chunk's replica set, and repair under the quorum policy. Sites are
   collected first (repairs mutate the trees we walk); repair work is
   memoized by the chunk's physical identity — (digest, replica set) — so
   a chunk referenced by many descriptors (structurally shared leaves,
   dedup'd descriptors with distinct serials) is re-replicated once, and
   every referencing site is rewritten to the repaired replica set while
   keeping its own descriptor serial. The dedup index is repointed at the
   repaired replicas so future hits reference healthy copies. *)
let scan t =
  let service = t.service in
  let vm = Client.version_manager service in
  t.passes <- t.passes + 1;
  let pass = t.passes in
  record t (Scan_started { at = now t; pass });
  let replication = (Client.params service).Types.replication in
  (* Merkle precheck: a version whose storage-side Merkle root (leaf =
     descriptor content digest when the replica set is fully healthy, a
     poisoned marker otherwise) equals the descriptor-side root has every
     chunk verified healthy — skip its site enumeration entirely. The
     per-pass memo dedupes verification across shadow-shared subtrees, so
     a subtree referenced by many versions is walked once per pass, not
     once per referencing version. *)
  let clean_leaves = ref 0 in
  let storage_memo = Hashtbl.create 512 in
  let storage_leaf (desc : Types.chunk_desc) =
    let good = List.filter (replica_good service desc) desc.replicas in
    if List.length good = List.length desc.replicas && List.length good = replication
    then Types.desc_content_digest desc
    else Int64.lognot (Types.desc_content_digest desc)
  in
  let version_clean tree =
    Client.with_merkle_metrics (fun () ->
        Segment_tree.merkle_digest ~digest:Types.desc_content_digest tree
        = Segment_tree.merkle_digest_with ~memo:storage_memo ~digest:storage_leaf tree)
  in
  let sites = ref [] in
  Version_manager.iter_live_trees vm (fun ~blob ~version tree ->
      if version_clean tree then begin
        clean_leaves := Segment_tree.fold_set (fun _ _ acc -> acc + 1) tree !clean_leaves;
        t.merkle_clean_versions <- t.merkle_clean_versions + 1;
        Obs.Metrics.incr m_merkle_clean
      end
      else
        Segment_tree.fold_set
          (fun index desc () -> sites := (blob, version, index, desc) :: !sites)
          tree ());
  let sites = List.rev !sites in
  t.chunks_checked <- t.chunks_checked + !clean_leaves;
  (* Repair work memo, keyed by the chunk's physical identity: every
     descriptor carrying the same digest over the same replica set shares
     one data-plane repair (and one repair_bytes charge), whatever its
     serial. *)
  let repaired_memo : (int64 * Types.replica list, Types.replica list option) Hashtbl.t =
    Hashtbl.create 64
  in
  let dedup = Provider_manager.dedup_index (Client.provider_manager service) in
  let repaired_count = ref 0 and unrepairable_count = ref 0 in
  let bad_sites = ref [] in
  let repair_desc (desc : Types.chunk_desc) =
    (* Returns [`Repaired] with the healthy replica set when the site must
       be rewritten; otherwise the descriptor stays (healthy, quorum
       failure, or unrepairable). *)
    let good = List.filter (replica_good service desc) desc.replicas in
    let corrupt = List.filter (replica_corrupt service desc) desc.replicas in
    (* Reclaim detectably corrupt copies regardless of repair outcome. *)
    List.iter
      (fun (r : Types.replica) ->
        Data_provider.delete_chunk (Client.data_provider service r.provider) r.chunk)
      corrupt;
    if good = [] then `Unrepairable
    else if List.length good = replication && corrupt = [] then `Healthy
    else begin
      let need = replication - List.length good in
      let fresh = if need > 0 then re_replicate t ~good ~need else [] in
      let total = List.length good + List.length fresh in
      if total < quorum t then `Quorum_failed (List.length good)
      else begin
        t.repairs <- t.repairs + 1;
        t.repair_bytes <- t.repair_bytes + (desc.size * List.length fresh);
        Obs.Metrics.incr m_repairs;
        Obs.Metrics.add m_repair_bytes (float_of_int (desc.size * List.length fresh));
        `Repaired
          (good @ fresh, List.length fresh, List.length desc.replicas - List.length good)
      end
    end
  in
  List.iter
    (fun (blob, version, index, (desc : Types.chunk_desc)) ->
      t.chunks_checked <- t.chunks_checked + 1;
      let key = (desc.digest, desc.replicas) in
      let outcome =
        match Hashtbl.find_opt repaired_memo key with
        | Some (Some replicas) -> `Rewrite { desc with Types.replicas }
        | Some None -> `Skip
        | None -> (
            match repair_desc desc with
            | `Healthy ->
                Hashtbl.add repaired_memo key None;
                `Skip
            | `Unrepairable ->
                Hashtbl.add repaired_memo key None;
                incr unrepairable_count;
                record t (Unrepairable { at = now t; blob; version; index });
                `Lost
            | `Quorum_failed good ->
                Hashtbl.add repaired_memo key None;
                t.quorum_failures <- t.quorum_failures + 1;
                record t (Quorum_failed { at = now t; blob; version; index; good });
                `Lost
            | `Repaired (replicas, added, dropped) ->
                Hashtbl.add repaired_memo key (Some replicas);
                (* Keep the content-addressed index pointing at healthy
                   copies: future dedup hits must reference the repaired
                   replica set, not the damaged one. *)
                Dedup_index.update_replicas dedup ~digest:desc.digest ~replicas;
                incr repaired_count;
                record t
                  (Repaired
                     { at = now t; blob; version; index; bytes = desc.size; added; dropped });
                `Rewrite { desc with Types.replicas })
      in
      match outcome with
      | `Skip -> ()
      | `Lost -> bad_sites := (blob, version) :: !bad_sites
      | `Rewrite new_desc -> (
          match Version_manager.replace_desc vm ~blob ~version ~index new_desc with
          | created -> Metadata_service.commit_nodes (Client.metadata_service service)
                         ~from:t.home created
          | exception Types.Service_crashed _ ->
              (* Version manager down mid-pass: leave the site for the next
                 pass (the memoized copies are already durable). *)
              bad_sites := (blob, version) :: !bad_sites))
    sites;
  t.bad_sites <- List.sort_uniq compare_site !bad_sites;
  (* Counted only here: a pass cancelled mid-loop never reaches
     [Scan_finished], and its partial count must not reach [stats]. *)
  t.unrepairable <- t.unrepairable + !unrepairable_count;
  record t
    (Scan_finished
       {
         at = now t;
         pass;
         checked = List.length sites + !clean_leaves;
         repaired = !repaired_count;
         unrepairable = !unrepairable_count;
       });
  Trace.emit (engine t) ~component:"scrubber"
    "pass %d: %d sites (%d merkle-clean), %d repaired, %d unrepairable" pass
    (List.length sites + !clean_leaves)
    !clean_leaves !repaired_count !unrepairable_count

let version_ok t ~blob ~version = not (List.mem (blob, version) t.bad_sites)
let bad_sites t = t.bad_sites

let stats t =
  {
    passes = t.passes;
    chunks_checked = t.chunks_checked;
    repairs = t.repairs;
    repair_bytes = t.repair_bytes;
    quorum_failures = t.quorum_failures;
    unrepairable = t.unrepairable;
    merkle_clean_versions = t.merkle_clean_versions;
  }

let events t = List.rev t.events_rev

let start t =
  match t.fiber with
  | Some _ -> ()
  | None ->
      let body () =
        try
          while true do
            Engine.sleep (engine t) t.config.interval;
            scan t
          done
        with Engine.Cancelled -> ()
      in
      t.fiber <- Some (Engine.Fiber.spawn (engine t) ~name:"scrubber" body)

let stop t =
  match t.fiber with
  | None -> ()
  | Some fiber ->
      t.fiber <- None;
      Engine.Fiber.cancel fiber;
      (* Wait for the pass in progress to unwind, so its abort handlers
         (e.g. a metadata commit's journal abort) run before we return. *)
      Engine.Fiber.join fiber
