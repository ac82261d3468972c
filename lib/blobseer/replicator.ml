open Simcore
open Netsim

type config = { window : int; link_latency : float; ship_delay : float }

let default_config = { window = 4; link_latency = 0.05; ship_delay = 1.0 }

type stats = {
  records_seen : int;
  records_applied : int;
  duplicate_skips : int;
  skipped_repairs : int;
  bytes_shipped : int;
  retries : int;
  stalls : int;
  backoff_time : float;
  max_inflight : int;
  max_lag : int;
  lag : int;
}

type promotion = {
  promoted_at : float;
  lost_versions : int;
  lost_bytes : int;
  lost_records : int;
}

(* What the fetch stage hands the apply stage: the changed chunk contents
   of a publication (already carried across the WAN link), or nothing for
   control records. *)
type prepared = Chunks of (int * Payload.t) list | Control

type t = {
  engine : Engine.t;
  net : Net.t;
  config : config;
  primary : Client.t;
  standby : Client.t;
  gateway_primary : Net.host;
  gateway_standby : Net.host;
  (* Identity-keyed jitter stream: replays are schedule-independent. *)
  jitter : Rng.t;
  (* Blob handles opened once per side and reused: an open is a version
     manager round trip, and the primary's manager serializes publishes —
     re-opening per record would queue behind (and delay) live commits. *)
  primary_handles : (int, Client.blob) Hashtbl.t;
  standby_handles : (int, Client.blob) Hashtbl.t;
  inbox : (Version_manager.commit_record * float) Engine.Mailbox.t;
  ready :
    (Version_manager.commit_record * float * prepared Engine.Ivar.t)
    Engine.Mailbox.t;
  window_sem : Engine.Semaphore.t;
  group : Engine.Group.t;
  (* Records announced by the primary but not yet fully applied to the
     standby, in commit order — the replication lag, and at promotion time
     the RPO. *)
  pending_q : Version_manager.commit_record Queue.t;
  mutable inflight : int;
  mutable promoted : bool;
  mutable records_seen : int;
  mutable records_applied : int;
  mutable duplicate_skips : int;
  mutable skipped_repairs : int;
  mutable bytes_shipped : int;
  mutable retries : int;
  mutable stalls : int;
  mutable backoff_time : float;
  mutable max_inflight : int;
  mutable max_lag : int;
}

let m_lag = Obs.Metrics.gauge ~component:"repl" ~name:"lag_records"
let m_in_flight = Obs.Metrics.gauge ~component:"repl" ~name:"in_flight"
let m_apply_lag = Obs.Metrics.histogram ~component:"repl" ~name:"apply_lag_s"
let m_records = Obs.Metrics.counter ~component:"repl" ~name:"records_applied"
let m_bytes = Obs.Metrics.counter ~component:"repl" ~name:"bytes_shipped"
let m_retries = Obs.Metrics.counter ~component:"repl" ~name:"retries"
let m_backoff = Obs.Metrics.counter ~component:"repl" ~name:"backoff_s"
let m_dup_skips = Obs.Metrics.counter ~component:"repl" ~name:"duplicate_skips"

let trace t fmt = Trace.emit t.engine ~component:"replicator" fmt
let lag t = Queue.length t.pending_q
let stats_lag = lag

let stats t =
  {
    records_seen = t.records_seen;
    records_applied = t.records_applied;
    duplicate_skips = t.duplicate_skips;
    skipped_repairs = t.skipped_repairs;
    bytes_shipped = t.bytes_shipped;
    retries = t.retries;
    stalls = t.stalls;
    backoff_time = t.backoff_time;
    max_inflight = t.max_inflight;
    max_lag = t.max_lag;
    lag = stats_lag t;
  }

(* ------------------------------------------------------------------ *)
(* Intake: runs synchronously inside the primary's committing operation,
   so it must never block — availability over consistency, the primary
   commit path only ever pays a mailbox push. *)

let enqueue t record =
  Queue.add record t.pending_q;
  t.records_seen <- t.records_seen + 1;
  let l = lag t in
  if l > t.max_lag then t.max_lag <- l;
  Obs.Metrics.set m_lag l;
  Engine.Mailbox.send t.inbox (record, Engine.now t.engine)

let inject = enqueue

(* ------------------------------------------------------------------ *)
(* Retry discipline: transient link/provider/service errors back off
   exponentially from [backoff_base] (with identity-keyed jitter) up to
   [backoff_cap] seconds and retry indefinitely — a partitioned or
   degraded link makes the replicator lag, never fail. Past
   [stall_retries] attempts the record is counted as stalled (the lagging
   degradation made visible). *)
let stall_retries = 8
let backoff_base = 0.02
let backoff_cap = 2.0

let with_backoff t ~label f =
  let rec go n =
    try f ()
    with Types.Provider_down _ | Types.Service_crashed _ | Faults.Injected_error _ ->
      if n = stall_retries then begin
        t.stalls <- t.stalls + 1;
        trace t "%s stalled after %d attempts; lagging" label n
      end;
      let expo = backoff_base *. float_of_int (1 lsl min n 16) in
      let delay = Float.min backoff_cap expo *. (1.0 +. (0.25 *. Rng.float t.jitter 1.0)) in
      t.retries <- t.retries + 1;
      t.backoff_time <- t.backoff_time +. delay;
      Obs.Metrics.incr m_retries;
      Obs.Metrics.add m_backoff delay;
      Engine.sleep t.engine delay;
      go (n + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Fetch stage: read the record's changed chunk contents off the primary
   (digest-verified, with the client's replica failover) and carry them
   across the WAN link. One fiber per in-flight record. *)

let primary_handle t blob =
  match Hashtbl.find_opt t.primary_handles blob with
  | Some b -> b
  | None ->
      let b = Client.open_blob t.primary ~from:t.gateway_primary ~id:blob in
      Hashtbl.replace t.primary_handles blob b;
      b

let standby_handle t blob =
  match Hashtbl.find_opt t.standby_handles blob with
  | Some b -> b
  | None ->
      let b = Client.open_blob t.standby ~from:t.gateway_standby ~id:blob in
      Hashtbl.replace t.standby_handles blob b;
      b

let ship_bytes t bytes =
  Net.transfer t.net ~src:t.gateway_primary ~dst:t.gateway_standby bytes;
  Engine.sleep t.engine t.config.link_latency

let ship_control t =
  Net.message t.net ~src:t.gateway_primary ~dst:t.gateway_standby;
  Engine.sleep t.engine t.config.link_latency

let fetch t record =
  match (record : Version_manager.commit_record) with
  | Published { blob; version } ->
      let pvm = Client.version_manager t.primary in
      let b = primary_handle t blob in
      let old_tree = Version_manager.peek_tree pvm ~blob ~version:(version - 1) in
      let new_tree = Version_manager.peek_tree pvm ~blob ~version in
      let changed =
        List.filter_map
          (fun (i, _, fresh) -> Option.map (fun d -> (i, d)) fresh)
          (Segment_tree.diff_leaves old_tree new_tree)
      in
      (* The journal record carries the tree delta, so the fetch pays
         provider and network cost only ({!Client.read_desc}) — no
         version-manager or metadata round trips that would queue behind
         (and slow) the primary's live commits. *)
      let chunks =
        List.map
          (fun (i, desc) -> (i, Client.read_desc b ~from:t.gateway_primary desc))
          changed
      in
      let bytes = List.fold_left (fun acc (_, p) -> acc + Payload.length p) 0 chunks in
      ship_bytes t bytes;
      t.bytes_shipped <- t.bytes_shipped + bytes;
      Obs.Metrics.incr ~by:bytes m_bytes;
      Chunks chunks
  | Blob_created _ | Cloned _ | Repaired _ ->
      ship_control t;
      Control

(* ------------------------------------------------------------------ *)
(* Apply stage: one fiber, strictly in commit order. Every branch is
   idempotent — a record whose effect is already visible on the standby
   (duplicate delivery, or a retried half-applied record) is skipped
   without touching state, including the standby's dedup refcounts. *)

let standby_has_blob t blob =
  List.mem blob (Version_manager.blob_ids (Client.version_manager t.standby))

let apply t record prep =
  let svm = Client.version_manager t.standby in
  match (record : Version_manager.commit_record) with
  | Blob_created { blob; capacity; stripe_size } ->
      if standby_has_blob t blob then `Duplicate
      else begin
        let info = Version_manager.create_blob svm ~from:t.gateway_standby ~capacity ~stripe_size in
        if info.Version_manager.blob_id <> blob then
          failwith "Replicator: standby blob id diverged";
        `Applied
      end
  | Cloned { src_blob; version; new_blob } ->
      if standby_has_blob t new_blob then `Duplicate
      else begin
        let src = standby_handle t src_blob in
        let cl = Client.clone src ~from:t.gateway_standby ~version in
        if Client.blob_id cl <> new_blob then
          failwith "Replicator: standby clone id diverged";
        `Applied
      end
  | Repaired _ ->
      (* Digest-preserving in-place repair: a logical no-op for the
         replica — the standby placed its own copies of the same bytes. *)
      `Skipped_repair
  | Published { blob; version } ->
      if Version_manager.peek_latest svm blob >= version then `Duplicate
      else begin
        let b = standby_handle t blob in
        let jobs =
          match prep with
          | Chunks chunks -> List.map (fun (i, p) -> (i, fun () -> p)) chunks
          | Control -> []
        in
        let v, _stats = Client.write_chunks b ~from:t.gateway_standby ~base:(version - 1) jobs in
        if v <> version then failwith "Replicator: standby version diverged";
        `Applied
      end

(* ------------------------------------------------------------------ *)
(* Pipeline fibers *)

let rec apply_loop t =
  let record, enqueued_at, ivar = Engine.Mailbox.recv t.ready in
  let prep = Engine.Ivar.read ivar in
  (match with_backoff t ~label:"apply" (fun () -> apply t record prep) with
  | `Applied ->
      t.records_applied <- t.records_applied + 1;
      Obs.Metrics.incr m_records
  | `Duplicate ->
      t.duplicate_skips <- t.duplicate_skips + 1;
      Obs.Metrics.incr m_dup_skips
  | `Skipped_repair -> t.skipped_repairs <- t.skipped_repairs + 1);
  ignore (Queue.pop t.pending_q);
  t.inflight <- t.inflight - 1;
  Obs.Metrics.set m_in_flight t.inflight;
  Engine.Semaphore.release t.window_sem;
  Obs.Metrics.observe m_apply_lag (Engine.now t.engine -. enqueued_at);
  Obs.Metrics.set m_lag (lag t);
  apply_loop t

let rec tail_loop t =
  let record, enqueued_at = Engine.Mailbox.recv t.inbox in
  Engine.Semaphore.acquire t.window_sem;
  t.inflight <- t.inflight + 1;
  Obs.Metrics.set m_in_flight t.inflight;
  if t.inflight > t.max_inflight then t.max_inflight <- t.inflight;
  let ivar = Engine.Ivar.create t.engine in
  Engine.Mailbox.send t.ready (record, enqueued_at, ivar);
  ignore
    (Engine.Fiber.spawn t.engine ~name:"replicator.fetch" ~group:t.group (fun () ->
         (* Batched shipping: a record becomes eligible [ship_delay] after
            its commit, so replication reads land in the primary's compute
            phase instead of stealing provider disk and service time from
            the checkpoint burst that produced the record. A record held
            back by window backpressure past its eligibility pays nothing
            extra. *)
         let eligible = enqueued_at +. t.config.ship_delay in
         let now = Engine.now t.engine in
         if eligible > now then Engine.sleep t.engine (eligible -. now);
         let prep = with_backoff t ~label:"fetch" (fun () -> fetch t record) in
         Engine.Ivar.fill ivar prep));
  tail_loop t

(* ------------------------------------------------------------------ *)

(* Window and agreement audit: the fetch/ship pipeline must honour its
   in-flight window; a promoted replicator must have settled its pending
   queue (the loss was accounted at promotion, nothing may linger
   half-tracked); and until a promotion diverges the sites on purpose,
   any version present on both must carry identical logical content — the
   standby applies the primary's history verbatim, never an interleaving
   of its own. *)
let audit t =
  let v invariant fmt = Engine.violation ~subject:"replicator" invariant fmt in
  let window =
    if t.max_inflight > t.config.window then
      [ v "window-bound" "max in-flight %d exceeded window %d" t.max_inflight t.config.window ]
    else []
  in
  let settled =
    if t.promoted && lag t <> 0 then
      [ v "promoted-settled" "%d record(s) still pending after promotion" (lag t) ]
    else []
  in
  let agreement =
    if t.promoted then []
    else begin
      let pvm = Client.version_manager t.primary in
      let svm = Client.version_manager t.standby in
      let leaves tree =
        List.rev
          (Segment_tree.fold_set
             (fun i (d : Types.chunk_desc) acc -> (i, d.Types.digest, d.Types.size) :: acc)
             tree [])
      in
      List.concat_map
        (fun blob ->
          if not (List.mem blob (Version_manager.blob_ids pvm)) then
            [ v "no-divergent-standby" "standby holds blob %d the primary never made" blob ]
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
                    if roots_agree || leaves ptree = leaves stree then None
                    else
                      Some
                        (v "no-divergent-standby" "blob %d v%d differs between primary and standby"
                           blob version))
              (List.init (Version_manager.peek_latest svm blob) (fun i -> i + 1)))
        (Version_manager.blob_ids svm)
    end
  in
  window @ settled @ agreement

let create engine net ~primary ~standby ~gateway_primary ~gateway_standby ~config =
  if config.window < 1 then invalid_arg "Replicator.create: window must be >= 1";
  if config.ship_delay < 0.0 then invalid_arg "Replicator.create: ship_delay";
  let t =
    {
      engine;
      net;
      config;
      primary;
      standby;
      gateway_primary;
      gateway_standby;
      jitter = Engine.derived_rng engine "replicator.jitter";
      inbox = Engine.Mailbox.create engine;
      ready = Engine.Mailbox.create engine;
      window_sem = Engine.Semaphore.create engine config.window;
      group = Engine.Group.create ();
      primary_handles = Hashtbl.create 8;
      standby_handles = Hashtbl.create 8;
      pending_q = Queue.create ();
      inflight = 0;
      promoted = false;
      records_seen = 0;
      records_applied = 0;
      duplicate_skips = 0;
      skipped_repairs = 0;
      bytes_shipped = 0;
      retries = 0;
      stalls = 0;
      backoff_time = 0.0;
      max_inflight = 0;
      max_lag = 0;
    }
  in
  Engine.register_audit engine (fun () -> audit t);
  ignore (Engine.Fiber.spawn engine ~name:"replicator.tail" ~group:t.group (fun () -> tail_loop t));
  ignore (Engine.Fiber.spawn engine ~name:"replicator.apply" ~group:t.group (fun () -> apply_loop t));
  t

let attach t =
  let pvm = Client.version_manager t.primary in
  Version_manager.set_on_commit pvm (fun record -> enqueue t record);
  (* Initial sync: announce everything already committed, oldest first.
     Blobs that pre-date the attach were created (not cloned), so a
     creation record plus each publication reconstructs them. *)
  List.iter
    (fun blob ->
      let info = Version_manager.blob_info pvm blob in
      enqueue t
        (Version_manager.Blob_created
           { blob; capacity = info.Version_manager.capacity;
             stripe_size = info.Version_manager.stripe_size });
      for version = 1 to Version_manager.peek_latest pvm blob do
        enqueue t (Version_manager.Published { blob; version })
      done)
    (Version_manager.blob_ids pvm)

(* Wait (in simulated time) until the standby has caught up. Polling is
   fine here: this is a test/operator convenience, not a hot path. *)
let rec quiesce t =
  if not t.promoted && lag t > 0 then begin
    Engine.sleep t.engine 0.05;
    quiesce t
  end

(* ------------------------------------------------------------------ *)
(* Failover *)

let promote t =
  if t.promoted then invalid_arg "Replicator.promote: already promoted";
  t.promoted <- true;
  Engine.Group.cancel t.engine t.group;
  (* Roll back any record the apply fiber was cancelled in the middle of:
     the standby's own journals make half-applied publications vanish. *)
  let svm = Client.version_manager t.standby in
  Version_manager.restart svm;
  Metadata_service.recover_journal (Client.metadata_service t.standby);
  (* Whatever was announced but never (fully) applied is the data loss.
     A record whose effect did land before the cancel is not lost. *)
  let pending = List.of_seq (Queue.to_seq t.pending_q) in
  let really_lost =
    List.filter
      (fun (r : Version_manager.commit_record) ->
        match r with
        | Published { blob; version } -> (
            match Version_manager.peek_latest svm blob with
            | latest -> latest < version
            | exception Not_found -> true)
        | Blob_created { blob; _ } -> not (standby_has_blob t blob)
        | Cloned { new_blob; _ } -> not (standby_has_blob t new_blob)
        | Repaired _ -> false)
      pending
  in
  let lost_versions =
    List.length
      (List.filter
         (function Version_manager.Published _ -> true | _ -> false)
         really_lost)
  in
  (* Size the loss from the primary's metadata alone: cost-free peeks
     still work on a fail-stopped site, where a client round trip would
     not. *)
  let pvm = Client.version_manager t.primary in
  let lost_bytes =
    List.fold_left
      (fun acc (r : Version_manager.commit_record) ->
        match r with
        | Published { blob; version } -> (
            try
              let old_tree = Version_manager.peek_tree pvm ~blob ~version:(version - 1) in
              let new_tree = Version_manager.peek_tree pvm ~blob ~version in
              List.fold_left
                (fun a (_, _, fresh) ->
                  match fresh with
                  | Some (d : Types.chunk_desc) -> a + d.Types.size
                  | None -> a)
                acc
                (Segment_tree.diff_leaves old_tree new_tree)
            with Not_found -> acc)
        | _ -> acc)
      0 really_lost
  in
  Queue.clear t.pending_q;
  Obs.Metrics.set m_lag 0;
  trace t "promoted standby: %d record(s) lost (%d version(s), %d bytes)"
    (List.length really_lost) lost_versions lost_bytes;
  {
    promoted_at = Engine.now t.engine;
    lost_versions;
    lost_bytes;
    lost_records = List.length really_lost;
  }

(* A version is restorable from the standby iff it was fully applied and
   every chunk still has a live, digest-clean replica there. *)
let version_ok t ~blob ~version =
  let svm = Client.version_manager t.standby in
  match Version_manager.peek_tree svm ~blob ~version with
  | exception Not_found -> false
  | tree ->
      Segment_tree.fold_set
        (fun _ (desc : Types.chunk_desc) ok ->
          ok
          && List.exists
               (fun (r : Types.replica) ->
                 let p = Client.data_provider t.standby r.provider in
                 Data_provider.is_alive p && Data_provider.verify_chunk p r.chunk)
               desc.replicas)
        tree true
