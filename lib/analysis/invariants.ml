open Simcore
open Blobseer
open Vdisk

type violation = { subject : string; invariant : string; detail : string }

let v subject invariant fmt = Fmt.kstr (fun detail -> { subject; invariant; detail }) fmt

let pp_violation ppf x =
  Fmt.pf ppf "%s: invariant %S violated: %s" x.subject x.invariant x.detail

(* ------------------------------------------------------------------ *)
(* qcow2 refcount audit (paper §2.3 baseline mechanics): every physical
   cluster's refcount must equal its references from the live table plus
   all frozen snapshot tables, every referenced cluster must hold data,
   and no data cluster may be orphaned. *)

let audit_qcow2 q =
  let subject = "qcow2:" ^ Qcow2.name q in
  let tables =
    ("live", Qcow2.table_view q)
    :: List.map (fun (n, tbl) -> ("snapshot " ^ n, tbl)) (Qcow2.snapshot_table_views q)
  in
  let expected =
    List.concat_map (fun (_, tbl) -> List.map snd tbl) tables
    |> List.sort compare
    |> List.fold_left
         (fun acc phys ->
           match acc with
           | (p, n) :: rest when p = phys -> (p, n + 1) :: rest
           | _ -> (phys, 1) :: acc)
         []
    |> List.rev
  in
  let stored = List.filter (fun (_, n) -> n <> 0) (Qcow2.refcount_view q) in
  let data = Qcow2.data_phys_view q in
  let refcount_violations =
    List.filter_map
      (fun (phys, n) ->
        match List.assoc_opt phys stored with
        | Some m when m = n -> None
        | Some m ->
            Some
              (v subject "refcount" "physical cluster %d: stored refcount %d, %d references"
                 phys m n)
        | None ->
            Some (v subject "refcount" "physical cluster %d: no refcount, %d references" phys n))
      expected
    @ List.filter_map
        (fun (phys, m) ->
          if List.mem_assoc phys expected then None
          else Some (v subject "refcount" "physical cluster %d: refcount %d but unreferenced" phys m))
        stored
  in
  let data_violations =
    List.filter_map
      (fun phys ->
        if List.mem_assoc phys expected then None
        else Some (v subject "no-orphans" "data cluster %d referenced by no table" phys))
      data
    @ List.filter_map
        (fun (phys, _) ->
          if List.mem phys data then None
          else Some (v subject "data-present" "referenced cluster %d holds no data" phys))
        expected
  in
  refcount_violations @ data_violations

(* ------------------------------------------------------------------ *)
(* Segment-tree partition audit: the terminal spans of a version tree must
   tile the padded power-of-two chunk space contiguously — a hole or
   overlap means shadowing produced a corrupt version (paper §3.1.2). *)

let audit_segment_tree ~subject ~chunks tree =
  let spans = Segment_tree.terminal_spans tree in
  let declared = Segment_tree.chunks tree in
  let shape =
    if declared <> chunks then
      [ v subject "tree-shape" "tree covers %d chunks, blob has %d" declared chunks ]
    else []
  in
  let rec tile expected = function
    | [] ->
        if expected >= chunks then []
        else [ v subject "partition" "leaves end at %d, short of %d chunks" expected chunks ]
    | (lo, extent, _) :: rest ->
        if extent <= 0 then
          [ v subject "partition" "non-positive span %d at leaf offset %d" extent lo ]
        else if lo <> expected then
          [
            v subject "partition" "leaf at offset %d where %d expected (%s)" lo expected
              (if lo > expected then "gap" else "overlap");
          ]
        else tile (lo + extent) rest
  in
  let occupied_width =
    List.filter_map
      (fun (lo, extent, occupied) ->
        if occupied && extent <> 1 then
          Some (v subject "leaf-width" "occupied leaf at %d spans %d chunks" lo extent)
        else None)
      spans
  in
  shape @ tile 0 spans @ occupied_width

(* ------------------------------------------------------------------ *)
(* Version-manager audit: the compactor's retention (keep-last, thinning)
   may punch holes in the live chain, but live and retired versions together
   must still tile the dense range the manager minted — a version in
   neither set was lost, not retired — and no version may be both.
   [latest] is the newest live version, and every stored tree addresses
   exactly the blob's chunk count. *)

let audit_version_manager vm =
  List.concat_map
    (fun blob ->
      let subject = Fmt.str "version-manager:blob%d" blob in
      let info = Version_manager.blob_info vm blob in
      let chunks =
        Version_manager.chunk_count ~capacity:info.Version_manager.capacity
          ~stripe_size:info.Version_manager.stripe_size
      in
      match Version_manager.versions vm ~blob with
      | [] -> [ v subject "versions-dense" "blob has no live versions at all" ]
      | first :: _ as versions ->
          let latest = Version_manager.peek_latest vm blob in
          let newest = List.fold_left max first versions in
          let retired = Version_manager.retired_versions vm ~blob in
          let disjoint =
            match List.filter (fun r -> List.mem r versions) retired with
            | [] -> []
            | overlap ->
                [
                  v subject "retired-disjoint" "versions %a are both live and retired"
                    Fmt.(list ~sep:comma int) overlap;
                ]
          in
          let dense =
            let all = List.sort_uniq Int.compare (versions @ retired) in
            let lo = List.hd all in
            if all <> List.init (List.length all) (fun i -> lo + i) then
              [
                v subject "versions-dense" "live %a + retired %a do not tile a dense range"
                  Fmt.(list ~sep:comma int) versions
                  Fmt.(list ~sep:comma int) retired;
              ]
            else []
          in
          let dense = disjoint @ dense in
          let latest_ok =
            if latest <> newest then
              [ v subject "latest-is-max" "latest is %d, newest stored version is %d" latest newest ]
            else []
          in
          let trees =
            List.concat_map
              (fun version ->
                audit_segment_tree
                  ~subject:(Fmt.str "%s/v%d" subject version)
                  ~chunks
                  (Version_manager.peek_tree vm ~blob ~version))
              versions
          in
          dense @ latest_ok @ trees)
    (Version_manager.blob_ids vm)

(* ------------------------------------------------------------------ *)
(* Mirror COW audit: a chunk can only be dirty if it is locally present —
   commit reads dirty chunks back from the local cache, so a dirty absent
   chunk would push garbage into the checkpoint image (paper §3.2). The
   carried digest cache owes the same subset discipline, and its entries
   must agree with a fresh digest of the chunk's current local bytes — a
   stale entry would let the next commit suppress or dedup a chunk on the
   wrong digest. Recomputation is sampled deterministically (every
   stride-th entry, ≤ ~64 recomputes) to bound teardown cost. Membership
   in the present and frozen-pending views is a table built once per
   audit, so the subset checks stay linear in the views at paper scale. *)

let member_of view =
  let set = Hashtbl.create (List.length view) in
  List.iter (fun chunk -> Hashtbl.replace set chunk ()) view;
  Hashtbl.mem set

let audit_mirror m =
  let subject = "mirror:" ^ Mirror.name m in
  let present = member_of (Mirror.present_view m) in
  let dirty =
    List.filter_map
      (fun chunk ->
        if present chunk then None
        else
          Some (v subject "dirty-subset-present" "chunk %d dirty but not locally present" chunk))
      (Mirror.dirty_view m)
  in
  let cache = Mirror.digest_view m in
  let subset =
    List.filter_map
      (fun (chunk, _) ->
        if present chunk then None
        else
          Some
            (v subject "digest-subset-present" "chunk %d digest-cached but not locally present"
               chunk))
      cache
  in
  let stride = max 1 (List.length cache / 64) in
  let coherent =
    List.filteri (fun i _ -> i mod stride = 0) cache
    |> List.filter_map (fun (chunk, cached) ->
           if not (present chunk) then None
           else
             let fresh = Payload.digest (Mirror.peek_chunk_payload m ~chunk) in
             if fresh = cached then None
             else
               Some
                 (v subject "digest-cache-coherent"
                    "chunk %d cached digest %Lx, current bytes digest %Lx" chunk cached fresh))
  in
  (* Frozen-epoch liveness (live checkpointing, DESIGN.md §17): every
     frozen-pending chunk must still be locally present, the diff log may
     only hold chunks of the pending set, and digests captured at freeze
     time must describe the frozen bytes — on both forks of the clone
     boundary (diff log and live store). A teardown with a frozen epoch
     still active means a background commit was neither finished nor
     rolled back. *)
  let frozen =
    if not (Mirror.frozen_active m) then []
    else begin
      let pending_view = Mirror.frozen_pending_view m in
      let pending = member_of pending_view in
      let leaked =
        [ v subject "frozen-resolved" "frozen epoch with %d chunk(s) never committed or aborted"
            (List.length pending_view) ]
      in
      let pend_present =
        List.filter_map
          (fun chunk ->
            if present chunk then None
            else
              Some
                (v subject "frozen-subset-present"
                   "chunk %d frozen-pending but not locally present" chunk))
          pending_view
      in
      let copied_pending =
        List.filter_map
          (fun chunk ->
            if pending chunk then None
            else
              Some
                (v subject "copied-subset-frozen"
                   "chunk %d in the frozen diff log but not frozen-pending" chunk))
          (Mirror.frozen_copied_view m)
      in
      let fcache = Mirror.frozen_digest_view m in
      let fstride = max 1 (List.length fcache / 64) in
      let fcoherent =
        List.filteri (fun i _ -> i mod fstride = 0) fcache
        |> List.filter_map (fun (chunk, cached) ->
               if not (pending chunk) then
                 Some
                   (v subject "frozen-digest-subset"
                      "chunk %d frozen-digest-cached but not frozen-pending" chunk)
               else
                 let fresh = Payload.digest (Mirror.peek_frozen_payload m ~chunk) in
                 if fresh = cached then None
                 else
                   Some
                     (v subject "frozen-digest-coherent"
                        "chunk %d frozen digest %Lx, frozen bytes digest %Lx" chunk cached
                        fresh))
      in
      leaked @ pend_present @ copied_pending @ fcoherent
    end
  in
  dirty @ subset @ coherent @ frozen

(* ------------------------------------------------------------------ *)
(* Deployment durability audit: replicas of a chunk must sit on pairwise
   distinct hosts (a single machine crash may never eat every copy), the
   checksum recorded provider-side at write time must agree with the
   descriptor's digest for every reachable replica (the end-to-end
   integrity contract — note we compare recorded metadata, not payload
   bytes, so deliberately corrupted test state does not trip teardown),
   and both metadata-plane journals must be quiescent: a pending intent
   at teardown is a half-published commit nobody recovered. *)

let audit_client c =
  let subject = "blobseer" in
  let vm = Client.version_manager c in
  let site_violations = ref [] in
  let seen_descs : (Types.chunk_desc, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Live logical references per content digest: distinct descriptor
     serials, counted across every live tree — the ground truth the dedup
     index's refcounts are audited against. *)
  let live_refs : (int64, int) Hashtbl.t = Hashtbl.create 256 in
  let seen_serials : (int64 * int, unit) Hashtbl.t = Hashtbl.create 256 in
  Version_manager.iter_live_trees vm (fun ~blob ~version tree ->
      Segment_tree.fold_set
        (fun index (desc : Types.chunk_desc) () ->
          if not (Hashtbl.mem seen_serials (desc.digest, desc.serial)) then begin
            Hashtbl.replace seen_serials (desc.digest, desc.serial) ();
            Hashtbl.replace live_refs desc.digest
              (1 + Option.value ~default:0 (Hashtbl.find_opt live_refs desc.digest))
          end;
          if not (Hashtbl.mem seen_descs desc) then begin
            Hashtbl.replace seen_descs desc ();
            let where = Fmt.str "blob %d v%d chunk %d" blob version index in
            let hosts =
              List.map
                (fun (r : Types.replica) ->
                  Netsim.Net.host_id (Data_provider.host (Client.data_provider c r.provider)))
                desc.replicas
            in
            if List.length (List.sort_uniq compare hosts) <> List.length hosts then
              site_violations :=
                v subject "replicas-distinct-hosts" "%s: replicas share a host (providers %a)"
                  where
                  Fmt.(list ~sep:comma int)
                  (List.map (fun (r : Types.replica) -> r.provider) desc.replicas)
                :: !site_violations;
            List.iter
              (fun (r : Types.replica) ->
                let p = Client.data_provider c r.provider in
                if
                  Data_provider.is_alive p
                  && Storage.Content_store.mem (Data_provider.store p) r.chunk
                  && Storage.Content_store.recorded_digest (Data_provider.store p) r.chunk
                     <> desc.digest
                then
                  site_violations :=
                    v subject "checksum-metadata" "%s: provider %d recorded digest %Lx, descriptor %Lx"
                      where r.provider
                      (Storage.Content_store.recorded_digest (Data_provider.store p) r.chunk)
                      desc.digest
                    :: !site_violations)
              desc.replicas
          end)
        tree ());
  (* Dedup refcount parity: each index entry's logical refcount must
     equal the number of distinct descriptor serials carrying its digest
     across the live trees (0 for an entry registered by a write whose
     publication never landed). Maintained by publication-time increments
     and compactor releases; drift means references leaked or were lost. *)
  let dedup_violations =
    List.filter_map
      (fun (digest, refs, _size, _replicas) ->
        let live = Option.value ~default:0 (Hashtbl.find_opt live_refs digest) in
        if refs <> live then
          Some
            (v subject "dedup-refcount" "digest %Lx: index refcount %d, %d live reference(s)"
               digest refs live)
        else None)
      (Dedup_index.view (Provider_manager.dedup_index (Client.provider_manager c)))
  in
  (* A fail-stopped metadata plane (a site disaster nobody will ever
     recover) legitimately holds pending intents forever — quiescence is
     only owed by services still alive to recover them. *)
  let journal =
    (let n = Version_manager.journal_pending vm in
     if n <> 0 && Version_manager.is_alive vm then
       [ v subject "journal-quiescent" "version manager journal holds %d pending intent(s)" n ]
     else [])
    @
    let md = Client.metadata_service c in
    let n = Metadata_service.journal_pending md in
    if n <> 0 && Metadata_service.alive_count md > 0 then
      [ v subject "journal-quiescent" "metadata journal holds %d pending intent(s)" n ]
    else []
  in
  List.rev !site_violations @ dedup_violations @ journal

(* ------------------------------------------------------------------ *)
(* Replicator audit: the fetch/ship pipeline must honour its in-flight
   window; a promoted replicator must have settled its pending queue (the
   loss was accounted at promotion, nothing may linger half-tracked); and
   until a promotion diverges the sites on purpose, any version present on
   both must carry identical logical content — the standby applies the
   primary's history verbatim, never an interleaving of its own. *)

let audit_replicator r =
  let subject = "replicator" in
  let stats = Replicator.stats r in
  let window =
    let w = (Replicator.config r).Replicator.window in
    if stats.Replicator.max_inflight > w then
      [
        v subject "window-bound" "max in-flight %d exceeded window %d"
          stats.Replicator.max_inflight w;
      ]
    else []
  in
  let settled =
    if Replicator.promoted r && Replicator.lag r <> 0 then
      [
        v subject "promoted-settled" "%d record(s) still pending after promotion"
          (Replicator.lag r);
      ]
    else []
  in
  let agreement =
    if Replicator.promoted r then []
    else begin
      let pvm = Client.version_manager (Replicator.primary r) in
      let svm = Client.version_manager (Replicator.standby r) in
      let leaves tree =
        List.rev
          (Segment_tree.fold_set
             (fun i (d : Types.chunk_desc) acc -> (i, d.Types.digest, d.Types.size) :: acc)
             tree [])
      in
      List.concat_map
        (fun blob ->
          if not (List.mem blob (Version_manager.blob_ids pvm)) then
            [ v subject "no-divergent-standby" "standby holds blob %d the primary never made" blob ]
          else
            List.filter_map
              (fun version ->
                match Version_manager.peek_tree pvm ~blob ~version with
                | exception Not_found -> None (* pruned on the primary; nothing to compare *)
                | ptree ->
                    let stree = Version_manager.peek_tree svm ~blob ~version in
                    (* Merkle-root fast path: agreeing roots prove the
                       logical content equal without materializing leaf
                       lists (memoized across the shadow-shared subtrees
                       of successive versions). Leaves are materialized
                       only on a root mismatch, for the precise verdict. *)
                    let roots_agree =
                      Client.with_merkle_metrics (fun () ->
                          Segment_tree.merkle_digest ~digest:Types.desc_content_digest ptree
                          = Segment_tree.merkle_digest ~digest:Types.desc_content_digest stree)
                    in
                    if roots_agree then None
                    else if leaves ptree <> leaves stree then
                      Some
                        (v subject "no-divergent-standby"
                           "blob %d v%d differs between primary and standby" blob version)
                    else None)
              (List.init (Version_manager.peek_latest svm blob) (fun i -> i + 1)))
        (Version_manager.blob_ids svm)
    end
  in
  window @ settled @ agreement

(* ------------------------------------------------------------------ *)
(* Compactor audit: the maintenance journal must be quiescent while the
   compactor is alive (pending intents on a dead compactor await its own
   recovery tick), and no chunk the deferred sweep deleted may be
   referenced by a live tree — chunk ids are never reused, so a hit here
   means compaction reclaimed data a live version still needs. *)

let audit_compactor c =
  let subject = "compactor" in
  let journal =
    let n = Compactor.journal_pending c in
    if n <> 0 && Compactor.is_alive c then
      [ v subject "journal-quiescent" "compactor journal holds %d pending intent(s)" n ]
    else []
  in
  let live = Client.live_chunk_refs (Compactor.service c) in
  let reclaimed_live =
    List.filter_map
      (fun (provider, chunk) ->
        if Hashtbl.mem live (provider, chunk) then
          Some
            (v subject "no-live-reclaimed" "live tree references reclaimed chunk %d on provider %d"
               chunk provider)
        else None)
      (List.sort_uniq compare (Compactor.reclaimed_chunks c))
  in
  journal @ reclaimed_live

(* ------------------------------------------------------------------ *)
(* Supervisor accounting audit: every instance the supervisor ever
   declared dead must have been rolled back and restarted, or explicitly
   abandoned — a silently dropped instance means the recovery loop lost
   track of part of the gang. *)

let audit_supervisor sup =
  List.map
    (fun detail -> { subject = "supervisor"; invariant = "dead-accounted"; detail })
    (Blobcr.Supervisor.audit sup)

(* ------------------------------------------------------------------ *)
(* Engine teardown hook *)

let audit_subject = function
  | Qcow2.Audit_image q -> Some ("qcow2:" ^ Qcow2.name q, audit_qcow2 q)
  | Mirror.Audit_mirror m -> Some ("mirror:" ^ Mirror.name m, audit_mirror m)
  | Version_manager.Audit_version_manager vm -> Some ("version-manager", audit_version_manager vm)
  | Client.Audit_client c -> Some ("blobseer", audit_client c)
  | Replicator.Audit_replicator r -> Some ("replicator", audit_replicator r)
  | Compactor.Audit_compactor c -> Some ("compactor", audit_compactor c)
  | Blobcr.Supervisor.Audit_supervisor sup -> Some ("supervisor", audit_supervisor sup)
  | _ -> None

let audit_engine engine =
  List.concat_map
    (fun s -> match audit_subject s with Some (_, vs) -> vs | None -> [])
    (Engine.audit_subjects engine)

let install () =
  Engine.set_subject_auditor (fun s ->
      match audit_subject s with
      | Some (_, []) | None -> None
      | Some (name, violations) ->
          Some (name, List.map (Fmt.str "%a" pp_violation) violations))

(* Linking this module is opting in: install the auditor so engines run
   the checks at teardown whenever BLOBCR_AUDIT is set. *)
let () = install ()
