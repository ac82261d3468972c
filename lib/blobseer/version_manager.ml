open Simcore
open Netsim

type tree = Types.chunk_desc Segment_tree.t
type blob_info = { blob_id : int; capacity : int; stripe_size : int }

type blob_state = {
  info : blob_info;
  versions : (int, tree) Hashtbl.t;
  mutable latest : int;
  (* Version numbers the compactor retired: no longer readable, but
     remembered so audits can check that live ∪ retired still tiles the
     dense range the manager minted. *)
  mutable retired : int list;
}

(* Intent records journaled before any state mutation: a crash between the
   journal append and the final commit leaves a pending intent that
   [restart] rolls back, so observers see the old state or the new one —
   never a half-published version. *)
type intent =
  | Publish of { blob : int; version : int }
  | Clone of { src_blob : int; version : int; new_blob : int }
  | Repair of { blob : int; version : int; index : int }

type crash_point = Before_apply | Mid_apply

(* Durable mutations in commit order, as seen by a journal-shipping
   replica. Emitted strictly after the journal commit, so a crashed and
   rolled-back operation is never announced. *)
type commit_record =
  | Published of { blob : int; version : int }
  | Cloned of { src_blob : int; version : int; new_blob : int }
  | Blob_created of { blob : int; capacity : int; stripe_size : int }
  | Repaired of { blob : int; version : int; index : int }

type t = {
  engine : Engine.t;
  net : Net.t;
  host : Net.host;
  server : Rate_server.t;
  blobs : (int, blob_state) Hashtbl.t;
  mutable next_blob : int;
  journal : intent Journal.t;
  mutable alive : bool;
  mutable armed : crash_point option;
  mutable recovered : int;
  mutable dedup : Dedup_index.t option;
  mutable on_commit : (commit_record -> unit) option;
}

let m_publishes = Obs.Metrics.counter ~component:"vmgr" ~name:"publishes"
let m_journal_rollbacks = Obs.Metrics.counter ~component:"vmgr" ~name:"journal_rollbacks"

let chunk_count ~capacity ~stripe_size = Size.div_ceil capacity stripe_size
let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

(* Density audit: the compactor's retention (keep-last, thinning) may
   punch holes in the live chain, but live and retired versions together
   must still tile the dense range the manager minted — a version in
   neither set was lost, not retired — and no version may be both.
   [latest] is the newest live version, and every stored tree passes the
   segment-tree partition audit for the blob's chunk count. *)
let audit t =
  List.concat_map
    (fun blob ->
      let subject = Fmt.str "version-manager:blob%d" blob in
      let v invariant fmt = Engine.violation ~subject invariant fmt in
      let st = Hashtbl.find t.blobs blob in
      match sorted_keys st.versions with
      | [] -> [ v "versions-dense" "blob has no live versions at all" ]
      | first :: _ as versions ->
          let newest = List.fold_left max first versions in
          let disjoint =
            match List.filter (fun r -> List.mem r versions) st.retired with
            | [] -> []
            | overlap ->
                [
                  v "retired-disjoint" "versions %a are both live and retired"
                    Fmt.(list ~sep:comma int) overlap;
                ]
          in
          let dense =
            let all = List.sort_uniq Int.compare (versions @ st.retired) in
            let lo = List.hd all in
            if all <> List.init (List.length all) (fun i -> lo + i) then
              [
                v "versions-dense" "live %a + retired %a do not tile a dense range"
                  Fmt.(list ~sep:comma int) versions
                  Fmt.(list ~sep:comma int) st.retired;
              ]
            else []
          in
          let latest_ok =
            if st.latest <> newest then
              [ v "latest-is-max" "latest is %d, newest stored version is %d" st.latest newest ]
            else []
          in
          let chunks =
            chunk_count ~capacity:st.info.capacity ~stripe_size:st.info.stripe_size
          in
          let trees =
            List.concat_map
              (fun version ->
                Segment_tree.audit
                  ~subject:(Fmt.str "%s/v%d" subject version)
                  ~chunks (Hashtbl.find st.versions version))
              versions
          in
          disjoint @ dense @ latest_ok @ trees)
    (sorted_keys t.blobs)

let create engine net ~host ~publish_cost =
  let t =
    {
      engine;
      net;
      host;
      server = Rate_server.create engine ~rate:1e12 ~per_op:publish_cost ();
      blobs = Hashtbl.create 64;
      next_blob = 0;
      journal = Journal.create ~name:"vmanager" ();
      alive = true;
      armed = None;
      recovered = 0;
      dedup = None;
      on_commit = None;
    }
  in
  Engine.register_audit engine (fun () -> audit t);
  t

let set_dedup_index t index = t.dedup <- Some index
let set_on_commit t f = t.on_commit <- Some f
let notify t record = match t.on_commit with Some f -> f record | None -> ()

let is_alive t = t.alive
let fail t = t.alive <- false
let arm_crash t point = t.armed <- Some point

let maybe_crash t point =
  match t.armed with
  | Some p when p = point ->
      t.armed <- None;
      t.alive <- false;
      raise (Types.Service_crashed "vmanager")
  | _ -> ()

let check_alive t = if not t.alive then raise (Types.Service_crashed "vmanager")

let rpc t ~from f =
  Net.message t.net ~src:from ~dst:t.host;
  check_alive t;
  let result = f () in
  Net.message t.net ~src:t.host ~dst:from;
  result

let register_blob t ~capacity ~stripe_size v0 =
  if capacity <= 0 || stripe_size <= 0 then invalid_arg "Version_manager: bad blob shape";
  let info = { blob_id = t.next_blob; capacity; stripe_size } in
  t.next_blob <- t.next_blob + 1;
  let versions = Hashtbl.create 16 in
  Hashtbl.replace versions 0 v0;
  Hashtbl.replace t.blobs info.blob_id { info; versions; latest = 0; retired = [] };
  info

let create_blob t ~from ~capacity ~stripe_size =
  rpc t ~from (fun () ->
      let chunks = chunk_count ~capacity ~stripe_size in
      let info = register_blob t ~capacity ~stripe_size (Segment_tree.create ~chunks) in
      notify t (Blob_created { blob = info.blob_id; capacity; stripe_size });
      info)

let state t blob = Hashtbl.find t.blobs blob
let blob_info t blob = (state t blob).info
let blob_ids t = sorted_keys t.blobs
let latest t ~from blob = rpc t ~from (fun () -> (state t blob).latest)

let get_tree t ~from ~blob ~version =
  rpc t ~from (fun () -> Hashtbl.find (state t blob).versions version)

(* Merge a stale-based update onto the current latest tree: every leaf the
   writer changed relative to its base wins; everything else keeps the
   latest content. *)
let merge_onto ~latest_tree ~changes =
  List.fold_left
    (fun acc (i, _old, fresh) ->
      let tree, _created = Segment_tree.set_range acc ~start:i [| fresh |] in
      tree)
    latest_tree changes

let publish t ~from ~blob ~base tree =
  Obs.Span.with_ t.engine ~component:"vmgr" ~name:"vmgr.publish"
    ~attrs:[ ("blob", Obs.Record.Int blob) ]
  @@ fun () ->
  Obs.Metrics.incr m_publishes;
  rpc t ~from (fun () ->
      Rate_server.process t.server 0;
      let st = state t blob in
      let base_tree = Hashtbl.find st.versions base in
      (* The writer's own changes relative to its base: exactly what a
         stale-based merge lands, and exactly what reference counting
         must see (leaves other writers changed since [base] were counted
         by their own publications). *)
      let changes = Segment_tree.diff_leaves base_tree tree in
      let tree =
        if base = st.latest then tree
        else merge_onto ~latest_tree:(Hashtbl.find st.versions st.latest) ~changes
      in
      let version = st.latest + 1 in
      let jid = Journal.append t.journal (Publish { blob; version }) in
      maybe_crash t Before_apply;
      Hashtbl.replace st.versions version tree;
      maybe_crash t Mid_apply;
      st.latest <- version;
      Journal.commit t.journal jid;
      (* Reference counting happens strictly after the journal commit, so
         a publication rolled back by [restart] never counts. *)
      (match t.dedup with
      | Some index ->
          List.iter
            (fun (_, _, fresh) ->
              match (fresh : Types.chunk_desc option) with
              | Some desc -> Dedup_index.add_ref index desc.digest
              | None -> ())
            changes
      | None -> ());
      notify t (Published { blob; version });
      version)

let clone t ~from ~blob ~version =
  rpc t ~from (fun () ->
      Rate_server.process t.server 0;
      (* A clone queued behind one that crashed the service must not
         apply: the crashed clone's pending intent names the blob id the
         next registration takes, so its rollback would delete this
         clone's blob. *)
      check_alive t;
      let st = state t blob in
      let snapshot = Hashtbl.find st.versions version in
      let jid =
        Journal.append t.journal (Clone { src_blob = blob; version; new_blob = t.next_blob })
      in
      maybe_crash t Before_apply;
      let info =
        register_blob t ~capacity:st.info.capacity ~stripe_size:st.info.stripe_size snapshot
      in
      maybe_crash t Mid_apply;
      Journal.commit t.journal jid;
      notify t (Cloned { src_blob = blob; version; new_blob = info.blob_id });
      info)

(* Scrubber repair: swap the chunk descriptor of one leaf of one published
   version in place, without minting a new version number. Journaled like a
   publication; returns the count of fresh tree nodes so the caller can
   charge the metadata commit. *)
let replace_desc t ~blob ~version ~index desc =
  check_alive t;
  let st = state t blob in
  let tree = Hashtbl.find st.versions version in
  let jid = Journal.append t.journal (Repair { blob; version; index }) in
  let tree', created = Segment_tree.set_range tree ~start:index [| Some desc |] in
  Hashtbl.replace st.versions version tree';
  Journal.commit t.journal jid;
  notify t (Repaired { blob; version; index });
  created

(* Roll a pending intent back to the pre-mutation state. A pending Publish
   may or may not have inserted the version root, but can never have bumped
   [latest] (the bump precedes the journal commit immediately); likewise a
   pending Clone may have registered the new blob. Repair's apply step is a
   single atomic leaf swap, so a pending Repair did not mutate. *)
let rollback t = function
  | Publish { blob; version } -> (
      match Hashtbl.find_opt t.blobs blob with
      | Some st -> if st.latest < version then Hashtbl.remove st.versions version
      | None -> ())
  | Clone { new_blob; _ } -> Hashtbl.remove t.blobs new_blob
  | Repair _ -> ()

let restart t =
  List.iter
    (fun (jid, intent) ->
      rollback t intent;
      Journal.abort t.journal jid;
      Obs.Metrics.incr m_journal_rollbacks;
      t.recovered <- t.recovered + 1)
    (Journal.pending t.journal);
  t.armed <- None;
  t.alive <- true

let journal_pending t = Journal.pending_count t.journal
let recovered_intents t = t.recovered

(* Retire one version for the compactor: a cost-free atomic map move (the
   compactor journals the surrounding transaction itself). Returns the
   retired tree so the caller can release dedup references and sweep the
   chunks only it referenced. *)
let retire_version t ~blob ~version =
  check_alive t;
  let st = state t blob in
  if version = st.latest then invalid_arg "Version_manager.retire_version: latest";
  match Hashtbl.find_opt st.versions version with
  | None -> invalid_arg "Version_manager.retire_version: not a live version"
  | Some tree ->
      Hashtbl.remove st.versions version;
      if not (List.mem version st.retired) then
        st.retired <- List.sort Int.compare (version :: st.retired);
      tree

let retired_versions t ~blob = (state t blob).retired

let unsafe_forget_version t ~blob ~version =
  Hashtbl.remove (state t blob).versions version

let versions t ~blob = sorted_keys (state t blob).versions

(* Retention planning lives with the version manager (it owns the version
   sets the policies partition); evaluation itself is {!Retention.plan}. *)
let retention_plan t ~blob ~policy =
  Retention.plan policy ~versions:(versions t ~blob) ~latest:(state t blob).latest

let peek_latest t blob = (state t blob).latest
let peek_tree t ~blob ~version = Hashtbl.find (state t blob).versions version

(* Iterate in sorted (blob, version) order: callers fold arbitrary state
   over the trees (the compactor builds its mark sets here), so hash order
   must not escape into results. *)
let iter_live_trees t f =
  List.iter
    (fun blob ->
      List.iter (fun version -> f ~blob ~version (peek_tree t ~blob ~version)) (versions t ~blob))
    (blob_ids t)
