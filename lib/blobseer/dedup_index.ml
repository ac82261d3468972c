open Simcore

type entry = {
  size : int;
  mutable replicas : Types.replica list;
  mutable refs : int;
}

type stats = { hits : int; misses : int; bytes_saved : int; entries : int }

type t = {
  engine : Engine.t;
  entries : (int64, entry) Hashtbl.t;
  (* Digests currently being written by some client: later writers of the
     same content wait for the outcome instead of racing a duplicate copy
     into the repository. The ivar resolves to the registered entry, or
     [None] when the claimer abandoned (failed write) — waiters then retry
     and one of them claims. *)
  inflight : (int64, entry option Engine.Ivar.t) Hashtbl.t;
  (* Refcounts of entries dropped by stale validation (their replicas
     died or were corrupted) while live descriptors still carry the
     digest. A re-registration of the same content inherits this count,
     keeping index refcounts equal to live-tree references — the audited
     invariant. Cleared wholesale by [reconcile]. *)
  orphaned : (int64, int) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

let create engine =
  {
    engine;
    entries = Hashtbl.create 1024;
    inflight = Hashtbl.create 16;
    orphaned = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    bytes_saved = 0;
  }

type resolution =
  | Hit of Types.replica list
  | Claimed

let rec resolve t ~digest ~size ~validate =
  match Hashtbl.find_opt t.entries digest with
  | Some entry when entry.size = size && validate entry.replicas ->
      t.hits <- t.hits + 1;
      t.bytes_saved <- t.bytes_saved + size;
      Hit entry.replicas
  | Some entry ->
      (* Stale mapping: replicas died, lost the chunk, or were corrupted
         (or a 64-bit digest collision across sizes). Drop it — stashing
         its refcount for a future re-registration — and treat the write
         as a miss; compactor reconciliation re-learns live content. *)
      if entry.refs > 0 then
        Hashtbl.replace t.orphaned digest
          (entry.refs + Option.value ~default:0 (Hashtbl.find_opt t.orphaned digest));
      Hashtbl.remove t.entries digest;
      resolve t ~digest ~size ~validate
  | None -> (
      match Hashtbl.find_opt t.inflight digest with
      | Some ivar ->
          (* Same content is being written right now: wait for the
             claimer's outcome, then re-resolve (hit on success, claim
             ourselves on abandonment). *)
          let _ = Engine.Ivar.read ivar in
          resolve t ~digest ~size ~validate
      | None ->
          Hashtbl.replace t.inflight digest (Engine.Ivar.create t.engine);
          t.misses <- t.misses + 1;
          Claimed)

type nowait_resolution =
  | Now_hit of Types.replica list
  | Now_claimed
  | Now_busy

let rec resolve_nowait t ~digest ~size ~validate =
  match Hashtbl.find_opt t.entries digest with
  | Some entry when entry.size = size && validate entry.replicas ->
      t.hits <- t.hits + 1;
      t.bytes_saved <- t.bytes_saved + size;
      Now_hit entry.replicas
  | Some entry ->
      (* Stale mapping: same drop-and-retry discipline as [resolve]. *)
      if entry.refs > 0 then
        Hashtbl.replace t.orphaned digest
          (entry.refs + Option.value ~default:0 (Hashtbl.find_opt t.orphaned digest));
      Hashtbl.remove t.entries digest;
      resolve_nowait t ~digest ~size ~validate
  | None ->
      if Hashtbl.mem t.inflight digest then
        (* Another writer's claim is in flight. Never block here: a batch
           caller may already hold claims on other digests, and blocking
           while holding claims can deadlock against a peer doing the same
           in the opposite order. The caller falls back to the blocking
           per-chunk path, which never holds one claim while waiting on
           another. *)
        Now_busy
      else begin
        Hashtbl.replace t.inflight digest (Engine.Ivar.create t.engine);
        t.misses <- t.misses + 1;
        Now_claimed
      end

let settle t ~digest outcome =
  match Hashtbl.find_opt t.inflight digest with
  | Some ivar ->
      Hashtbl.remove t.inflight digest;
      Engine.Ivar.fill ivar outcome
  | None -> ()

let publish t ~digest ~size ~replicas =
  let refs = Option.value ~default:0 (Hashtbl.find_opt t.orphaned digest) in
  Hashtbl.remove t.orphaned digest;
  let entry = { size; replicas; refs } in
  Hashtbl.replace t.entries digest entry;
  settle t ~digest (Some entry)

let abandon t ~digest = settle t ~digest None

let add_ref t digest =
  match Hashtbl.find_opt t.entries digest with
  | Some entry -> entry.refs <- entry.refs + 1
  | None -> ()

let release_ref t digest =
  match Hashtbl.find_opt t.entries digest with
  | Some entry -> if entry.refs > 0 then entry.refs <- entry.refs - 1
  | None -> ()

let drop_unreferenced t digest =
  match Hashtbl.find_opt t.entries digest with
  | Some entry when entry.refs <= 0 ->
      Hashtbl.remove t.entries digest;
      true
  | _ -> false

let update_replicas t ~digest ~replicas =
  match Hashtbl.find_opt t.entries digest with
  | Some entry -> entry.replicas <- replicas
  | None -> ()

let reconcile t live =
  Hashtbl.reset t.orphaned;
  let keep = Hashtbl.create (List.length live) in
  List.iter
    (fun (digest, (refs, size, replicas)) ->
      Hashtbl.replace keep digest ();
      match Hashtbl.find_opt t.entries digest with
      | Some entry -> entry.refs <- refs
      | None -> Hashtbl.replace t.entries digest { size; replicas; refs })
    live;
  let dead =
    (* lint: allow hashtbl-order — collected keys are only removed, order-insensitive *)
    Hashtbl.fold
      (fun digest _ acc -> if Hashtbl.mem keep digest then acc else digest :: acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) dead;
  List.length dead

let view t =
  (* lint: allow hashtbl-order — sorted below *)
  Hashtbl.fold
    (fun digest (entry : entry) acc ->
      (digest, entry.refs, entry.size, entry.replicas) :: acc)
    t.entries []
  |> List.sort (fun (d1, _, _, _) (d2, _, _, _) -> Int64.compare d1 d2)

let stats t : stats =
  { hits = t.hits; misses = t.misses; bytes_saved = t.bytes_saved; entries = Hashtbl.length t.entries }

let unsafe_set_refs t ~digest refs =
  match Hashtbl.find_opt t.entries digest with
  | Some entry -> entry.refs <- refs
  | None -> ()
