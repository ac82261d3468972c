open Simcore
open Netsim
open Storage

type config = { policy : Retention.policy }

type crash_point = Before_flatten | Mid_retire | After_retire

(* The journaled intent: appended before the first retire, committed after
   the sweep queue is updated. [retire] names the exact versions, so
   recovery can tell a transaction that never mutated (every version still
   live -> roll back) from one that did (roll forward). [boundary] is the
   youngest surviving version the flatten verified — informational, for
   journal dumps and tests. *)
type intent = Compact of { blob : int; retire : int list; boundary : int }

type stats = {
  passes : int;
  flattens : int;
  flatten_failures : int;
  chunks_verified : int;
  chunks_shared : int;
  flatten_bytes_read : int;
  flatten_bytes_local : int;
  merkle_clean_bounds : int;
  read_retries : int;
  versions_retired : int;
  chunks_reclaimed : int;
  bytes_reclaimed : int;
  parity_failures : int;
  crashes : int;
  rolled_forward : int;
  rolled_back : int;
}

let m_retired = Obs.Metrics.counter ~component:"cmpct" ~name:"versions_retired"
let m_reclaimed = Obs.Metrics.counter ~component:"cmpct" ~name:"bytes_reclaimed"
let m_flatten_read = Obs.Metrics.counter ~component:"cmpct" ~name:"flatten_bytes_read"
let m_flatten_local = Obs.Metrics.counter ~component:"cmpct" ~name:"flatten_bytes_local"

type t = {
  service : Client.t;
  home : Net.host;
  config : config;
  journal : intent Journal.t;
  handles : (int, Client.blob) Hashtbl.t;
  (* Deferred physical reclamation: (provider, chunk) -> pass at which the
     chunk lost its last live reference. Deletion happens one full pass
     later, and only if still unreferenced — the grace window covers any
     writer that resolved a dedup hit on the chunk before its digest entry
     was dropped but has not yet published. *)
  pending_sweep : (int * int, int) Hashtbl.t;
  mutable alive : bool;
  mutable armed : crash_point option;
  mutable passes : int;
  mutable flattens : int;
  mutable flatten_failures : int;
  mutable chunks_verified : int;
  mutable chunks_shared : int;
  mutable flatten_bytes_read : int;
  mutable flatten_bytes_local : int;
  mutable merkle_clean_bounds : int;
  mutable boundary_roots_rev : (int * int * int64) list;
  mutable read_retries : int;
  mutable versions_retired : int;
  mutable chunks_reclaimed : int;
  mutable bytes_reclaimed : int;
  mutable parity_failures : int;
  mutable crashes : int;
  mutable rolled_forward : int;
  mutable rolled_back : int;
  mutable deleted_log : (int * int) list;
}

(* Journal and reclamation audit: the maintenance journal must be
   quiescent while the compactor is alive (pending intents on a dead
   compactor await its {!restart}), and no chunk the deferred sweep
   deleted may be referenced by a live tree — chunk ids are never reused,
   so a hit here means compaction reclaimed data a live version still
   needs. *)
let audit t =
  let v invariant fmt = Engine.violation ~subject:"compactor" invariant fmt in
  let journal =
    let n = Journal.pending_count t.journal in
    if n <> 0 && t.alive then
      [ v "journal-quiescent" "compactor journal holds %d pending intent(s)" n ]
    else []
  in
  let live = Client.live_chunk_refs t.service in
  journal
  @ List.filter_map
      (fun (provider, chunk) ->
        if Hashtbl.mem live (provider, chunk) then
          Some
            (v "no-live-reclaimed" "live tree references reclaimed chunk %d on provider %d" chunk
               provider)
        else None)
      (List.rev t.deleted_log)

let create service ~home ~config =
  let t =
    {
      service;
      home;
      config;
      journal = Journal.create ~name:"compactor" ();
      handles = Hashtbl.create 8;
      pending_sweep = Hashtbl.create 64;
      alive = true;
      armed = None;
      passes = 0;
      flattens = 0;
      flatten_failures = 0;
      chunks_verified = 0;
      chunks_shared = 0;
      flatten_bytes_read = 0;
      flatten_bytes_local = 0;
      merkle_clean_bounds = 0;
      boundary_roots_rev = [];
      read_retries = 0;
      versions_retired = 0;
      chunks_reclaimed = 0;
      bytes_reclaimed = 0;
      parity_failures = 0;
      crashes = 0;
      rolled_forward = 0;
      rolled_back = 0;
      deleted_log = [];
    }
  in
  Engine.register_audit (Client.engine service) (fun () -> audit t);
  t

let engine t = Client.engine t.service
let is_alive t = t.alive
let journal_pending t = Journal.pending_count t.journal
let arm_crash t point = t.armed <- Some point

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.crashes <- t.crashes + 1
  end

let check_alive t = if not t.alive then raise (Types.Service_crashed "compactor")

let maybe_crash t point =
  match t.armed with
  | Some p when p = point ->
      t.armed <- None;
      t.alive <- false;
      t.crashes <- t.crashes + 1;
      raise (Types.Service_crashed "compactor")
  | _ -> ()

let handle t blob =
  match Hashtbl.find_opt t.handles blob with
  | Some h -> h
  | None ->
      let h = Client.open_blob t.service ~from:t.home ~id:blob in
      Hashtbl.replace t.handles blob h;
      h

(* Same transient classifier as the scrubber: these abort the current
   transaction (intent rolled back) and the next pass retries; anything
   else — notably Service_crashed and Cancelled — passes through. *)
let transient = function
  | Types.Provider_down _ | Faults.Injected_error _ | Not_found | Disk.Full _ -> true
  | _ -> false

let read_desc_retrying t h desc =
  let attempts = ref 0 in
  let payload =
    Faults.with_retries (engine t) ~label:"compactor" (fun () ->
        incr attempts;
        Client.read_desc h ~from:t.home desc)
  in
  t.read_retries <- t.read_retries + (!attempts - 1);
  payload

(* Survivors whose immediately preceding live version is being retired:
   after compaction they head a flattened segment, so a restart from them
   must not depend on chunks only the retired run held. *)
let boundaries ~live ~retire =
  let rec go prev_retired = function
    | [] -> []
    | v :: rest ->
        if List.mem v retire then go true rest
        else if prev_retired then v :: go false rest
        else go false rest
  in
  go false live

(* A replica that can serve a restart: provider live, chunk present, and
   the stored bytes verify against the digest the writer published.
   Provider-local — no network, no simulated cost. *)
let replica_ok t (desc : Types.chunk_desc) (r : Types.replica) =
  let p = Client.data_provider t.service r.provider in
  Data_provider.is_alive p
  && Content_store.mem (Data_provider.store p) r.chunk
  && Content_store.recorded_digest (Data_provider.store p) r.chunk = desc.digest
  && Data_provider.verify_chunk p r.chunk

(* Flatten verification: every chunk of each boundary version that is
   {e cold} — i.e. differs from the live tip (leaves shared with the tip
   stay hot through ordinary reads and later snapshots) — must be
   restartable after the intermediates go away. By default a boundary
   version is verified wholesale by one subtree-digest compare: its
   descriptor-side Merkle root against a storage-side root whose leaf is
   the descriptor's content digest when at least one replica verifies
   provider-locally and a poisoned marker otherwise. Agreeing roots prove
   every chunk readable without a single payload read, and the
   per-flatten memo verifies shadow-shared subtrees once. On a root
   mismatch the per-chunk path runs (memoized by physical identity):
   provider-local verification first, a full remote verify-read only as
   fallback. Returns (verified, shared, bytes_read, bytes_local). *)
let flatten t ~blob ~bounds =
  let vm = Client.version_manager t.service in
  let h = handle t blob in
  let latest = Version_manager.peek_latest vm blob in
  let latest_tree = Version_manager.peek_tree vm ~blob ~version:latest in
  let seen : (int64 * Types.replica list, unit) Hashtbl.t = Hashtbl.create 64 in
  let storage_memo = Hashtbl.create 64 in
  let storage_leaf (desc : Types.chunk_desc) =
    if List.exists (replica_ok t desc) desc.replicas then Types.desc_content_digest desc
    else Int64.lognot (Types.desc_content_digest desc)
  in
  let verified = ref 0 and shared = ref 0 in
  let bytes = ref 0 and local_bytes = ref 0 in
  List.iter
    (fun version ->
      let tree = Version_manager.peek_tree vm ~blob ~version in
      let occupied = Segment_tree.fold_set (fun _ _ n -> n + 1) tree 0 in
      let root = Client.merkle_root h ~version in
      let clean =
        Client.with_merkle_metrics (fun () ->
            Segment_tree.merkle_digest_with ~memo:storage_memo ~digest:storage_leaf tree)
        = root
      in
      if clean then t.merkle_clean_bounds <- t.merkle_clean_bounds + 1;
      let cold = ref 0 in
      List.iter
        (fun (_, _, leaf) ->
          match (leaf : Types.chunk_desc option) with
          | None -> ()
          | Some desc ->
              incr cold;
              let key = (desc.digest, desc.replicas) in
              if Hashtbl.mem seen key then incr shared
              else begin
                Hashtbl.replace seen key ();
                incr verified;
                if clean || List.exists (replica_ok t desc) desc.replicas then
                  local_bytes := !local_bytes + desc.size
                else begin
                  ignore (read_desc_retrying t h desc);
                  bytes := !bytes + desc.size
                end
              end)
        (Segment_tree.diff_leaves latest_tree tree);
      shared := !shared + (occupied - !cold);
      t.boundary_roots_rev <- (blob, version, root) :: t.boundary_roots_rev)
    bounds;
  (!verified, !shared, !bytes, !local_bytes)

(* Dedup refcount parity gate: for every digest the candidate trees
   reference, the index refcount must equal the live distinct-serial
   count. Retiring on top of a drifted index would compound the drift, so
   a mismatch vetoes the blob's compaction this pass (the audit will name
   the drift). Trivially passes with dedup disabled. *)
let parity_mismatch t ~trees =
  if not (Client.params t.service).Types.dedup then None
  else begin
    let dedup = Provider_manager.dedup_index (Client.provider_manager t.service) in
    let wanted = Hashtbl.create 32 in
    List.iter
      (fun tree ->
        Segment_tree.fold_set
          (fun _ (d : Types.chunk_desc) () -> Hashtbl.replace wanted d.digest ())
          tree ())
      trees;
    let live = Hashtbl.create 64 in
    List.iter
      (fun (digest, (refs, _, _)) -> Hashtbl.replace live digest refs)
      (Client.live_digest_refs t.service);
    let index = Hashtbl.create 64 in
    List.iter
      (fun (digest, refs, _, _) -> Hashtbl.replace index digest refs)
      (Dedup_index.view dedup);
    (* lint: allow hashtbl-order — sorted below *)
    Hashtbl.fold (fun d () acc -> d :: acc) wanted []
    |> List.sort Int64.compare
    |> List.find_opt (fun d ->
           Option.value ~default:0 (Hashtbl.find_opt live d)
           <> Option.value ~default:0 (Hashtbl.find_opt index d))
  end

(* Queue every physical chunk the retired trees referenced that no live
   tree references any more, and drop dedup entries released to zero so
   the doomed chunks stop serving hits. Runs inside the atomic (no
   simulated time) tail of the transaction. *)
let release_and_queue t ~retired_trees =
  let vm = Client.version_manager t.service in
  let dedup = Provider_manager.dedup_index (Client.provider_manager t.service) in
  (* Logical release: each (digest, serial) pair present in a retired tree
     but in no surviving live tree was one live reference. *)
  let surviving = Hashtbl.create 256 in
  Version_manager.iter_live_trees vm (fun ~blob:_ ~version:_ tree ->
      Segment_tree.fold_set
        (fun _ (d : Types.chunk_desc) () -> Hashtbl.replace surviving (d.digest, d.serial) ())
        tree ());
  let released = Hashtbl.create 64 in
  List.iter
    (fun tree ->
      Segment_tree.fold_set
        (fun _ (d : Types.chunk_desc) () ->
          let pair = (d.digest, d.serial) in
          if (not (Hashtbl.mem surviving pair)) && not (Hashtbl.mem released pair) then begin
            Hashtbl.replace released pair ();
            Dedup_index.release_ref dedup d.digest;
            ignore (Dedup_index.drop_unreferenced dedup d.digest)
          end)
        tree ())
    retired_trees;
  (* Physical queue: replicas of the retired trees that no live tree
     references go into the deferred sweep. *)
  let live = Client.live_chunk_refs t.service in
  List.iter
    (fun tree ->
      Segment_tree.fold_set
        (fun _ (d : Types.chunk_desc) () ->
          List.iter
            (fun (r : Types.replica) ->
              let key = (r.provider, r.chunk) in
              if (not (Hashtbl.mem live key)) && not (Hashtbl.mem t.pending_sweep key) then
                Hashtbl.replace t.pending_sweep key t.passes)
            d.replicas)
        tree ())
    retired_trees

(* Deferred sweep: delete every queued chunk that aged a full pass and is
   still unreferenced. A chunk that became live again (a dedup-hit holder
   published during the grace window) is spared and dequeued; one whose
   provider died or that something else already deleted is dequeued
   without being counted as reclaimed. *)
let sweep_aged t =
  let live = Client.live_chunk_refs t.service in
  let aged =
    (* lint: allow hashtbl-order — sorted below *)
    Hashtbl.fold (fun key pass acc -> if pass < t.passes then key :: acc else acc)
      t.pending_sweep []
    |> List.sort (fun (p1, c1) (p2, c2) ->
           match Int.compare p1 p2 with 0 -> Int.compare c1 c2 | n -> n)
  in
  let chunks = ref 0 and bytes = ref 0 in
  List.iter
    (fun ((provider, chunk) as key) ->
      Hashtbl.remove t.pending_sweep key;
      if Hashtbl.mem live key then () (* resurrected by a publish: spare it *)
      else begin
        let p = Client.data_provider t.service provider in
        if Data_provider.is_alive p && Content_store.mem (Data_provider.store p) chunk then begin
          let size = Payload.length (Content_store.get (Data_provider.store p) chunk) in
          Data_provider.delete_chunk p chunk;
          t.deleted_log <- key :: t.deleted_log;
          incr chunks;
          bytes := !bytes + size
        end
      end)
    aged;
  if !chunks > 0 then begin
    t.chunks_reclaimed <- t.chunks_reclaimed + !chunks;
    t.bytes_reclaimed <- t.bytes_reclaimed + !bytes;
    Obs.Metrics.add m_reclaimed (float_of_int !bytes)
  end

(* One blob's compaction transaction. The flatten passes simulated time
   (network + disk reads); everything from the first retire to the journal
   commit is atomic — no sleeps, no I/O — so the only mid-transaction
   interleavings are the armed crash points themselves. *)
let compact_blob t ~blob ~(plan : Retention.plan) =
  let vm = Client.version_manager t.service in
  let retire = plan.Retention.retire in
  let live = Version_manager.versions vm ~blob in
  let bounds = boundaries ~live ~retire in
  let boundary = List.fold_left max 0 bounds in
  let jid = Journal.append t.journal (Compact { blob; retire; boundary }) in
  maybe_crash t Before_flatten;
  match flatten t ~blob ~bounds with
  | exception e when transient e ->
      Journal.abort t.journal jid;
      t.flatten_failures <- t.flatten_failures + 1;
      0
  | exception (Types.Service_crashed _ as e) when t.alive ->
      (* The version manager (not us) died under the flatten: nothing was
         retired, so resolve the intent now instead of at recovery. *)
      Journal.abort t.journal jid;
      t.flatten_failures <- t.flatten_failures + 1;
      raise e
  | verified, shared, bytes_read, bytes_local -> (
      t.flattens <- t.flattens + 1;
      t.chunks_verified <- t.chunks_verified + verified;
      t.chunks_shared <- t.chunks_shared + shared;
      t.flatten_bytes_read <- t.flatten_bytes_read + bytes_read;
      t.flatten_bytes_local <- t.flatten_bytes_local + bytes_local;
      Obs.Metrics.add m_flatten_read (float_of_int bytes_read);
      Obs.Metrics.add m_flatten_local (float_of_int bytes_local);
      match parity_mismatch t ~trees:(List.filter_map
                                        (fun v ->
                                          match Version_manager.peek_tree vm ~blob ~version:v with
                                          | tree -> Some tree
                                          | exception Not_found -> None)
                                        retire)
      with
      | Some _ ->
          Journal.abort t.journal jid;
          t.parity_failures <- t.parity_failures + 1;
          0
      | None ->
          (* Atomic from here to the commit. *)
          let retired_trees = ref [] in
          let retired = ref [] in
          let first = ref true in
          (try
             List.iter
               (fun version ->
                 (* The flatten passed simulated time: skip versions that
                    are no longer live. *)
                 if List.mem version (Version_manager.versions vm ~blob) then begin
                   let tree = Version_manager.retire_version vm ~blob ~version in
                   retired_trees := tree :: !retired_trees;
                   retired := version :: !retired;
                   if !first then begin
                     first := false;
                     maybe_crash t Mid_retire
                   end
                 end)
               retire
           with (Types.Service_crashed _ as e) when t.alive && !retired = [] ->
             (* Version manager down at the first retire: nothing mutated,
                resolve the intent here. *)
             Journal.abort t.journal jid;
             raise e);
          maybe_crash t After_retire;
          let retired = List.rev !retired in
          if retired = [] then Journal.abort t.journal jid
          else begin
            release_and_queue t ~retired_trees:(List.rev !retired_trees);
            t.versions_retired <- t.versions_retired + List.length retired;
            Obs.Metrics.incr ~by:(List.length retired) m_retired;
            Journal.commit t.journal jid
          end;
          List.length retired)

let scan t =
  check_alive t;
  let vm = Client.version_manager t.service in
  t.passes <- t.passes + 1;
  let pass = t.passes in
  sweep_aged t;
  let retired_total = ref 0 in
  List.iter
    (fun blob ->
      let plan = Version_manager.retention_plan vm ~blob ~policy:t.config.policy in
      if plan.Retention.retire <> [] then
        retired_total := !retired_total + compact_blob t ~blob ~plan)
    (Version_manager.blob_ids vm);
  Trace.emit (engine t) ~component:"compactor" "pass %d: %d retired, %d queued" pass
    !retired_total (Hashtbl.length t.pending_sweep)

(* Recovery. A pending intent whose every named version is still live
   never mutated: roll back. One that already lost versions from the live
   set rolls forward — retire the rest, then reconcile the dedup index
   against the live trees and queue every unreferenced chunk for the
   deferred sweep: the crash destroyed the precise per-tree bookkeeping,
   so recovery reclaims by mark-sweep instead. *)
let restart t =
  let vm = Client.version_manager t.service in
  let forward = ref 0 and back = ref 0 in
  List.iter
    (fun (jid, Compact { blob; retire; _ }) ->
      let live = Version_manager.versions vm ~blob in
      let still_live = List.filter (fun v -> List.mem v live) retire in
      if List.length still_live = List.length retire then begin
        Journal.abort t.journal jid;
        incr back
      end
      else begin
        List.iter
          (fun version ->
            ignore (Version_manager.retire_version vm ~blob ~version);
            t.versions_retired <- t.versions_retired + 1;
            Obs.Metrics.incr m_retired)
          still_live;
        let dedup = Provider_manager.dedup_index (Client.provider_manager t.service) in
        ignore (Dedup_index.reconcile dedup (Client.live_digest_refs t.service));
        let live_refs = Client.live_chunk_refs t.service in
        Array.iteri
          (fun provider p ->
            if Data_provider.is_alive p then
              List.iter
                (fun chunk ->
                  let key = (provider, chunk) in
                  if (not (Hashtbl.mem live_refs key)) && not (Hashtbl.mem t.pending_sweep key)
                  then Hashtbl.replace t.pending_sweep key t.passes)
                (Content_store.ids (Data_provider.store p)))
          (Client.data_providers t.service);
        Journal.commit t.journal jid;
        incr forward
      end)
    (Journal.pending t.journal);
  t.rolled_forward <- t.rolled_forward + !forward;
  t.rolled_back <- t.rolled_back + !back;
  t.armed <- None;
  t.alive <- true

let stats t =
  {
    passes = t.passes;
    flattens = t.flattens;
    flatten_failures = t.flatten_failures;
    chunks_verified = t.chunks_verified;
    chunks_shared = t.chunks_shared;
    flatten_bytes_read = t.flatten_bytes_read;
    flatten_bytes_local = t.flatten_bytes_local;
    merkle_clean_bounds = t.merkle_clean_bounds;
    read_retries = t.read_retries;
    versions_retired = t.versions_retired;
    chunks_reclaimed = t.chunks_reclaimed;
    bytes_reclaimed = t.bytes_reclaimed;
    parity_failures = t.parity_failures;
    crashes = t.crashes;
    rolled_forward = t.rolled_forward;
    rolled_back = t.rolled_back;
  }

let boundary_roots t = List.rev t.boundary_roots_rev
let reclaimed_chunks t = t.deleted_log
let pending_reclaim t = Hashtbl.length t.pending_sweep
