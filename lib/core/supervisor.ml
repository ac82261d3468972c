open Simcore
open Netsim
open Blobseer
open Storage

type policy = {
  heartbeat_period : float;
  misses_allowed : int;
  max_recovery_attempts : int;
  checkpoint_interval : int;
  ckpt_mode : Approach.mode;
}

let default_policy =
  { heartbeat_period = 1.0; misses_allowed = 2; max_recovery_attempts = 3;
    checkpoint_interval = 4; ckpt_mode = Approach.stop_the_world }

type workload = {
  setup : Approach.instance list -> unit;
  iterate : unit -> [ `Done | `Gang_down ];
  dump : Approach.instance -> unit;
  restore : Approach.instance -> unit;
  resumed : int -> unit;
}

type event =
  | Deployed of { at : float; ids : string list }
  | Checkpoint_committed of { at : float; units : int; elapsed : float }
  | Checkpoint_degraded of { at : float; units : int; reason : string }
  | Failure_detected of { at : float; dead : string list }
  | Recovered of { at : float; attempt : int; resumed_units : int }
  | Abandoned of { at : float; ids : string list }
  | Journal_recovered of { at : float; intents : int }
  | Scrubbed of { at : float; repaired : int; unrepairable : int }
  | Rollback_demoted of { at : float; from_units : int; to_units : int }
  | Failed_over of
      { at : float; rpo_versions : int; rpo_bytes : int; rpo_units : int; rto : float }

type report = {
  finished : bool;
  units_completed : int;
  checkpoints : int;
  recoveries : int;
  useful_time : float;
  wasted_time : float;
  recovery_latencies : float list;
  checkpoint_time : float;
  events : event list;
  injected : Faults.event list;
}

type t = {
  cluster : Cluster.t;
  kind : Approach.kind;
  policy : policy;
  workload : workload;
  total_units : int;
  slot_ids : string array;
  mutable instances : Approach.instance list;
  mutable snapshots : Approach.snapshot list;
  mutable snapshot_units : int;
  mutable snapshots_prev : Approach.snapshot list;
  mutable snapshot_units_prev : int;
  (* Every committed snapshot set, newest first: failover walks it to the
     newest entry the standby fully replicated. *)
  mutable snapshot_history : (Approach.snapshot list * int) list;
  scrub_config : Scrubber.config option;
  mutable scrubber : Scrubber.t option;
  mutable injector : Faults.t option;
  mutable units_done : int;
  mutable checkpoints : int;
  mutable recoveries : int;
  mutable monitor_gen : int;
  mutable segment_start : float;
  mutable useful : float;
  mutable wasted : float;
  mutable latencies_rev : float list;
  mutable ckpt_time : float;
  mutable events_rev : event list;
  mutable declared_dead : string list;
  mutable restarted : string list;
  mutable abandoned : string list;
  mutable finished : bool;
  mutable done_ : bool;
}

let m_recoveries = Obs.Metrics.counter ~component:"sup" ~name:"recoveries"
let m_abandoned = Obs.Metrics.counter ~component:"sup" ~name:"recoveries_abandoned"
let m_failovers = Obs.Metrics.counter ~component:"sup" ~name:"failovers"

let engine t = t.cluster.Cluster.engine
let now t = Engine.now (engine t)
let record t e = t.events_rev <- e :: t.events_rev

let trace t msg = Trace.emit (engine t) ~component:"supervisor" "%s" msg

(* ------------------------------------------------------------------ *)
(* Fault handlers: map abstract injector actions onto the platform. *)

let fault_handlers t =
  let cluster = t.cluster in
  let nodes = Cluster.node_count cluster in
  {
    Faults.null_handlers with
    (* Crash targets index into the nodes currently hosting the gang: a
       host MTBF spread over idle spares would never take the application
       down. Falls back to the whole cluster when nothing is placed. *)
    Faults.crash_host =
      (fun i ->
        let occupied =
          List.sort_uniq Int.compare
            (List.filter_map
               (fun (inst : Approach.instance) ->
                 let idx = inst.Approach.node.Cluster.index in
                 if Cluster.node_failed cluster idx then None else Some idx)
               t.instances)
        in
        let target =
          match occupied with
          | [] -> i mod nodes
          | occ -> List.nth occ (i mod List.length occ)
        in
        Cluster.crash_node cluster target);
    fail_provider =
      (fun i -> Data_provider.fail (Client.data_provider cluster.Cluster.service (i mod nodes)));
    fail_metadata =
      (fun i ->
        let md = Client.metadata_service cluster.Cluster.service in
        Metadata_service.fail md (i mod Metadata_service.provider_count md));
    transient_disk =
      (fun ~target ~ops ->
        Disk.inject_transient (Cluster.node cluster (target mod nodes)).Cluster.disk ~ops);
    degrade_links =
      (fun ~factor ~duration ->
        Net.degrade cluster.Cluster.net ~factor ~until:(now t +. duration));
    partition =
      (fun ~group ~duration ->
        let hosts = List.map (fun i -> (Cluster.node cluster (i mod nodes)).Cluster.host) group in
        Net.partition cluster.Cluster.net
          ~side:(fun h -> List.exists (fun g -> g == h) hosts)
          ~until:(now t +. duration));
    (* Resolve the abstract chunk ordinal against what the provider
       actually stores right now (sorted ids, mod count), so scripts stay
       valid whatever the repository holds at injection time. *)
    silent_corruption =
      (fun ~provider ~chunk ->
        let p = Client.data_provider cluster.Cluster.service (provider mod nodes) in
        match Content_store.ids (Data_provider.store p) with
        | [] -> ()
        | ids ->
            let target = List.nth ids (chunk mod List.length ids) in
            ignore (Data_provider.corrupt_chunk p ~salt:(provider + chunk) target));
    crash_commit =
      (fun ~point ->
        Version_manager.arm_crash
          (Client.version_manager cluster.Cluster.service)
          (if point = 0 then Version_manager.Before_apply else Version_manager.Mid_apply));
    (* Background-service hosts: the scrubber restarts from scratch (its
       fiber is killed mid-pass and respawned). A supervised run has no
       compactor, so service targets 1 and 2, like [Crash_compaction],
       keep the null handler's no-op. *)
    crash_service =
      (fun i ->
        match (i mod 3, t.scrubber) with
        | 0, Some s ->
            Scrubber.stop s;
            Scrubber.start s
        | _ -> ());
    crash_site = (fun () -> Cluster.crash_site cluster);
  }

(* ------------------------------------------------------------------ *)
(* Deployment *)

let deploy_gang t ~nodes ~ids =
  let slots = List.combine ids nodes in
  let insts = Array.make (List.length slots) None in
  Engine.all (engine t) ~name:"supervisor.deploy"
    (List.mapi
       (fun k (id, node) () -> insts.(k) <- Some (Approach.deploy t.cluster t.kind ~node ~id))
       slots);
  Array.to_list insts |> List.map Option.get

let live_node_indices t ~excluding =
  List.filter
    (fun i -> (not (Cluster.node_failed t.cluster i)) && not (List.mem i excluding))
    (List.init (Cluster.node_count t.cluster) Fun.id)

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let commit_checkpoint t ~started snaps =
  (* Keep the previous committed set: if the scrubber later finds the new
     one unrestorable, recovery demotes to this one. *)
  t.snapshots_prev <- t.snapshots;
  t.snapshot_units_prev <- t.snapshot_units;
  t.snapshots <- snaps;
  t.snapshot_units <- t.units_done;
  t.snapshot_history <- (snaps, t.units_done) :: t.snapshot_history;
  t.checkpoints <- t.checkpoints + 1;
  let n = now t in
  t.useful <- t.useful +. (n -. t.segment_start);
  t.segment_start <- n;
  record t (Checkpoint_committed { at = n; units = t.units_done; elapsed = n -. started });
  trace t (Fmt.str "checkpoint committed at %d/%d units" t.units_done t.total_units)

let degrade_checkpoint t reason =
  record t (Checkpoint_degraded { at = now t; units = t.units_done; reason });
  trace t (Fmt.str "checkpoint degraded (%s); keeping snapshot at %d units" reason t.snapshot_units)

(* A metadata-plane crash (version manager or metadata service died
   mid-COMMIT/CLONE) is repaired before any snapshot retry: journal
   recovery rolls the half-applied publication back, after which the
   mirror still holds its dirty set and the commit can be redone whole. *)
let recover_services t partial =
  let crashed =
    List.exists
      (fun (e : Protocol.branch_error) -> Protocol.error_class e.error = `Service_crash)
      partial.Protocol.failed
  in
  if crashed then begin
    let service = t.cluster.Cluster.service in
    let vm = Client.version_manager service in
    let md = Client.metadata_service service in
    let before =
      Version_manager.recovered_intents vm + Metadata_service.recovered_intents md
    in
    Version_manager.restart vm;
    Metadata_service.recover_journal md;
    let intents =
      Version_manager.recovered_intents vm + Metadata_service.recovered_intents md - before
    in
    record t (Journal_recovered { at = now t; intents });
    trace t (Fmt.str "journal recovery: %d pending intent(s) rolled back" intents)
  end;
  crashed

(* A failed snapshot stage can be retried per instance — the guest dumps
   already landed in the file system, only the disk-snapshot step is
   redone. A failed dump stage cannot (the gang-wide drain already broke),
   so the previous snapshot set stays authoritative and the run continues
   uncheckpointed until the next interval. *)
let take_checkpoint t =
  let started = now t in
  let commit snaps =
    commit_checkpoint t ~started snaps;
    t.ckpt_time <- t.ckpt_time +. (now t -. started)
  in
  match
    Protocol.global_checkpoint ~mode:t.policy.ckpt_mode t.cluster ~instances:t.instances
      ~dump:t.workload.dump
  with
  | Ok snaps -> commit snaps
  | Error partial ->
      let snapshot_only =
        List.for_all (fun (e : Protocol.branch_error) -> e.stage = "snapshot") partial.failed
      in
      if not snapshot_only then degrade_checkpoint t "dump stage failed"
      else begin
        ignore (recover_services t partial);
        (* [Error None] is a cancelled retry, [Error (Some exn)] a failed one. *)
        let retries =
          List.map
            (fun (e : Protocol.branch_error) ->
              let inst = List.nth t.instances e.index in
              match Approach.request_checkpoint ~mode:t.policy.ckpt_mode t.cluster inst with
              | snap -> Ok (e.index, snap)
              | exception Engine.Cancelled -> Error None
              | exception exn -> Error (Some exn))
            partial.failed
        in
        let retried = List.filter_map Result.to_option retries in
        if List.length retried = List.length partial.failed then
          partial.completed @ retried
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
          |> commit
        else
          degrade_checkpoint t
            (match List.find_map (function Error cause -> cause | Ok _ -> None) retries with
            | Some exn -> "snapshot retry failed: " ^ Printexc.to_string exn
            | None -> "snapshot retry failed")
      end

(* ------------------------------------------------------------------ *)
(* Failure detection *)

let observed_dead t =
  List.filter
    (fun (inst : Approach.instance) ->
      Vmsim.Vm.state inst.Approach.vm = Vmsim.Vm.Dead
      || Cluster.node_failed t.cluster inst.Approach.node.Cluster.index)
    t.instances

(* Heartbeat prober: every period, ping each instance's node from the
   supervisor host and count consecutive missed beats; an instance missing
   [misses_allowed] beats in a row is declared dead and the generation's
   outcome is decided. Probes pay the network round-trip, so detection
   latency is heartbeat-period x misses plus messaging time. *)
let spawn_monitor t ~gen ~outcome =
  let misses = ref [] in
  let miss_count id = match List.assoc_opt id !misses with Some n -> n | None -> 0 in
  let body () =
    let rec loop () =
      if t.monitor_gen = gen && not (Engine.Ivar.is_filled outcome) then begin
        Engine.sleep (engine t) t.policy.heartbeat_period;
        if t.monitor_gen = gen && not (Engine.Ivar.is_filled outcome) then begin
          let dead_now = observed_dead t in
          List.iter
            (fun (inst : Approach.instance) ->
              Net.message t.cluster.Cluster.net ~src:t.cluster.Cluster.supervisor_host
                ~dst:inst.Approach.node.Cluster.host;
              let id = inst.Approach.id in
              let n =
                if List.exists (fun (d : Approach.instance) -> d.Approach.id = id) dead_now
                then miss_count id + 1
                else 0
              in
              misses := (id, n) :: List.remove_assoc id !misses)
            t.instances;
          let declared =
            List.filter
              (fun (inst : Approach.instance) ->
                miss_count inst.Approach.id >= t.policy.misses_allowed)
              t.instances
          in
          if declared <> [] && t.monitor_gen = gen && not (Engine.Ivar.is_filled outcome) then
            Engine.Ivar.fill outcome (`Dead declared)
          else loop ()
        end
      end
    in
    try loop () with Engine.Cancelled -> ()
  in
  ignore (Engine.Fiber.spawn (engine t) ~name:(Fmt.str "supervisor.monitor.%d" gen) body)

(* ------------------------------------------------------------------ *)
(* Worker: drives the workload and periodic checkpoints; cancellable so
   a checkpoint stranded on a drain barrier (dead rank) can be abandoned
   once the monitor declares the failure. *)

let spawn_worker t ~outcome =
  let body () =
    match
      let rec go () =
        if t.units_done >= t.total_units then `Finished
        else
          match t.workload.iterate () with
          | `Gang_down -> `Gang_down
          | `Done ->
              t.units_done <- t.units_done + 1;
              if
                t.units_done mod t.policy.checkpoint_interval = 0
                || t.units_done = t.total_units
              then take_checkpoint t;
              go ()
      in
      go ()
    with
    | outcome_value ->
        if not (Engine.Ivar.is_filled outcome) then Engine.Ivar.fill outcome outcome_value
    | exception Engine.Cancelled -> ()
  in
  Engine.Fiber.spawn (engine t) ~name:"supervisor.worker" body

(* ------------------------------------------------------------------ *)
(* Recovery *)

let restart_gang t =
  let numbered = List.mapi (fun i snap -> (i, snap)) t.snapshots in
  let rec attempt k ~pending ~placed =
    if pending = [] then
      Ok (List.sort (fun (a, _) (b, _) -> Int.compare a b) placed |> List.map snd)
    else if k > t.policy.max_recovery_attempts then Error pending
    else begin
      let used =
        List.map (fun (_, (i : Approach.instance)) -> i.Approach.node.Cluster.index) placed
      in
      let avail = live_node_indices t ~excluding:used in
      if List.length avail < List.length pending then Error pending
      else begin
        let targets = take (List.length pending) avail in
        let plan =
          List.map2
            (fun node_index (slot, snap) ->
              ( Cluster.node t.cluster node_index,
                Fmt.str "%s.r%d" t.slot_ids.(slot) t.recoveries,
                snap ))
            targets pending
        in
        match Protocol.global_restart t.cluster ~plan ~restore:(fun _ -> ()) with
        | Ok insts ->
            let placed' =
              List.map2 (fun (slot, _) inst -> (slot, inst)) pending insts @ placed
            in
            attempt k ~pending:[] ~placed:placed'
        | Error partial ->
            let slot_of i = fst (List.nth pending i) in
            let snap_of i = snd (List.nth pending i) in
            let placed' =
              List.map (fun (i, inst) -> (slot_of i, inst)) partial.Protocol.completed @ placed
            in
            let pending' =
              List.map
                (fun (e : Protocol.branch_error) -> (slot_of e.index, snap_of e.index))
                partial.Protocol.failed
            in
            trace t
              (Fmt.str "restart attempt %d: %d branch(es) failed (%s), retrying" k
                 (List.length pending')
                 (String.concat "; "
                    (List.map (Fmt.str "%a" Protocol.pp_branch_error)
                       partial.Protocol.failed)));
            attempt (k + 1) ~pending:pending' ~placed:placed'
      end
    end
  in
  attempt 1 ~pending:numbered ~placed:[]

(* Site-disaster failover: promote the standby repository, restart the
   scrubber against it, and roll the recovery target back to the newest
   committed snapshot set the standby fully replicated (every chunk with a
   live, digest-clean replica there). Returns the RPO actually incurred,
   or [`No_restorable] when no committed set survived replication — only
   BlobCR snapshots live in the geo-replicated repository, so baseline
   approaches cannot fail over. *)
let fail_over t =
  Obs.Metrics.incr m_failovers;
  let old_units = t.snapshot_units in
  let promo = Cluster.promote_standby t.cluster in
  let cluster = t.cluster in
  (match t.scrubber with Some s -> Scrubber.stop s | None -> ());
  t.scrubber <- None;
  (match t.scrub_config with
  | Some config ->
      let s =
        Scrubber.create cluster.Cluster.service ~home:cluster.Cluster.supervisor_host
          ~config ()
      in
      Scrubber.start s;
      t.scrubber <- Some s
  | None -> ());
  let repl =
    match Cluster.replicator cluster with
    | Some r -> r
    | None -> assert false (* promote_standby would have raised *)
  in
  let snap_ok = function
    | Approach.Blobcr_snapshot { image; version } ->
        Replicator.version_ok repl ~blob:(Client.blob_id image) ~version
    | Approach.Qcow2_snapshot _ | Approach.Full_snapshot _ -> false
  in
  (* Rebind snapshot blob handles onto the promoted repository (blob ids
     are preserved by replication). *)
  let translate = function
    | Approach.Blobcr_snapshot { image; version } ->
        Approach.Blobcr_snapshot
          {
            image =
              Client.open_blob cluster.Cluster.service ~from:cluster.Cluster.supervisor_host
                ~id:(Client.blob_id image);
            version;
          }
    | s -> s
  in
  let rec choose = function
    | [] -> None
    | (snaps, units) :: older ->
        if snaps <> [] && List.for_all snap_ok snaps then Some ((snaps, units), older)
        else choose older
  in
  match choose t.snapshot_history with
  | None -> `No_restorable
  | Some ((snaps, units), older) ->
      t.snapshots <- List.map translate snaps;
      t.snapshot_units <- units;
      (match choose older with
      | Some ((psnaps, punits), _) ->
          t.snapshots_prev <- List.map translate psnaps;
          t.snapshot_units_prev <- punits
      | None ->
          t.snapshots_prev <- [];
          t.snapshot_units_prev <- 0);
      trace t
        (Fmt.str "failover: resuming from %d units (%d version(s), %d byte(s) lost in flight)"
           units promo.Replicator.lost_versions promo.Replicator.lost_bytes);
      `Promoted (promo.Replicator.lost_versions, promo.Replicator.lost_bytes, old_units - units)

let recover t ~dead ~detected_at =
  Obs.Span.with_ (engine t) ~component:"sup" ~name:"sup.recover"
    ~attrs:[ ("dead", Obs.Record.Int (List.length dead)) ]
  @@ fun () ->
  Obs.Metrics.incr m_recoveries;
  record t (Failure_detected { at = detected_at; dead });
  List.iter
    (fun id -> if not (List.mem id t.declared_dead) then t.declared_dead <- id :: t.declared_dead)
    dead;
  t.wasted <- t.wasted +. (now t -. t.segment_start);
  let old_ids = List.map (fun (i : Approach.instance) -> i.Approach.id) t.instances in
  (* Roll the whole gang back: coordinated checkpoints are global, so
     survivors are killed too and everyone resumes from the last committed
     snapshot set. *)
  Protocol.kill_all t.instances;
  t.instances <- [];
  t.recoveries <- t.recoveries + 1;
  (* Site disaster: promote the standby before any metadata-plane work —
     the primary site is gone, so journal recovery, scrubbing and the
     restart all run against the promoted repository. *)
  let failover =
    if Cluster.site_failed t.cluster && not (Cluster.promoted t.cluster) then
      Some (fail_over t)
    else None
  in
  match failover with
  | Some `No_restorable ->
      t.abandoned <- old_ids @ t.abandoned;
      Obs.Metrics.incr m_abandoned;
      record t (Abandoned { at = now t; ids = old_ids });
      trace t "failover abandoned: no fully replicated snapshot set on the standby";
      `Abandoned
  | _ ->
  (* The metadata plane must be serving before any restart reads snapshot
     trees: a crash mid-COMMIT leaves the version manager down with a
     pending intent until journal recovery rolls it back. *)
  let service = t.cluster.Cluster.service in
  if not (Version_manager.is_alive (Client.version_manager service)) then begin
    let vm = Client.version_manager service in
    let md = Client.metadata_service service in
    let before =
      Version_manager.recovered_intents vm + Metadata_service.recovered_intents md
    in
    Version_manager.restart vm;
    Metadata_service.recover_journal md;
    let intents =
      Version_manager.recovered_intents vm + Metadata_service.recovered_intents md - before
    in
    record t (Journal_recovered { at = now t; intents });
    trace t (Fmt.str "journal recovery before restart: %d intent(s) rolled back" intents)
  end;
  (* Scrub before choosing the rollback target: the crash may have taken
     replicas (or silently corrupted them) out of the newest snapshot set.
     Repairs run now; if a snapshot still has a chunk with zero good
     copies, demote to the previous committed set. *)
  (match t.scrubber with
  | None -> ()
  | Some scrub ->
      let before = Scrubber.stats scrub in
      Scrubber.scan scrub;
      let after = Scrubber.stats scrub in
      record t
        (Scrubbed
           {
             at = now t;
             repaired = after.Scrubber.repairs - before.Scrubber.repairs;
             unrepairable = after.Scrubber.unrepairable - before.Scrubber.unrepairable;
           });
      let snapshot_ok = function
        | Approach.Blobcr_snapshot { image; version } ->
            Scrubber.version_ok scrub ~blob:(Client.blob_id image) ~version
        | Approach.Qcow2_snapshot _ | Approach.Full_snapshot _ -> true
      in
      if not (List.for_all snapshot_ok t.snapshots) && t.snapshots_prev <> [] then begin
        record t
          (Rollback_demoted
             { at = now t; from_units = t.snapshot_units; to_units = t.snapshot_units_prev });
        trace t
          (Fmt.str "rollback target demoted: snapshot at %d units unrestorable, using %d"
             t.snapshot_units t.snapshot_units_prev);
        t.snapshots <- t.snapshots_prev;
        t.snapshot_units <- t.snapshot_units_prev
      end);
  match restart_gang t with
  | Error _pending ->
      t.abandoned <- old_ids @ t.abandoned;
      Obs.Metrics.incr m_abandoned;
      record t (Abandoned { at = now t; ids = old_ids });
      trace t "recovery abandoned: no spare nodes or attempts exhausted";
      `Abandoned
  | Ok insts ->
      t.instances <- insts;
      t.workload.setup insts;
      Engine.all (engine t) ~name:"supervisor.restore"
        (List.map (fun inst () -> t.workload.restore inst) insts);
      t.workload.resumed t.snapshot_units;
      t.units_done <- t.snapshot_units;
      t.restarted <- old_ids @ t.restarted;
      let n = now t in
      t.latencies_rev <- (n -. detected_at) :: t.latencies_rev;
      t.segment_start <- n;
      (match failover with
      | Some (`Promoted (rpo_versions, rpo_bytes, rpo_units)) ->
          record t
            (Failed_over { at = n; rpo_versions; rpo_bytes; rpo_units; rto = n -. detected_at })
      | _ -> ());
      record t (Recovered { at = n; attempt = t.recoveries; resumed_units = t.snapshot_units });
      trace t
        (Fmt.str "recovered: resumed from %d units on %s" t.snapshot_units
           (String.concat ","
              (List.map (fun (i : Approach.instance) -> i.Approach.id) insts)));
      `Recovered

(* ------------------------------------------------------------------ *)
(* Main loop *)

let rec supervise t =
  let outcome = Engine.Ivar.create (engine t) in
  t.monitor_gen <- t.monitor_gen + 1;
  spawn_monitor t ~gen:t.monitor_gen ~outcome;
  let worker = spawn_worker t ~outcome in
  match Engine.Ivar.read outcome with
  | `Finished ->
      t.monitor_gen <- t.monitor_gen + 1;
      t.useful <- t.useful +. (now t -. t.segment_start);
      t.segment_start <- now t;
      t.finished <- true
  | (`Gang_down | `Dead _) as failure ->
      t.monitor_gen <- t.monitor_gen + 1;
      Engine.Fiber.cancel worker;
      let detected_at = now t in
      let dead_insts =
        match failure with `Dead insts -> insts | `Gang_down -> observed_dead t
      in
      let dead = List.map (fun (i : Approach.instance) -> i.Approach.id) dead_insts in
      trace t (Fmt.str "failure detected: [%s]" (String.concat "," dead));
      (match recover t ~dead ~detected_at with
      | `Recovered -> supervise t
      | `Abandoned -> t.finished <- false)

let report t =
  {
    finished = t.finished;
    units_completed = t.units_done;
    checkpoints = t.checkpoints;
    recoveries = t.recoveries;
    useful_time = t.useful;
    wasted_time = t.wasted;
    recovery_latencies = List.rev t.latencies_rev;
    checkpoint_time = t.ckpt_time;
    events = List.rev t.events_rev;
    injected = (match t.injector with Some inj -> Faults.applied inj | None -> []);
  }

let instances t = t.instances
let scrubber t = t.scrubber

let audit t =
  let unaccounted =
    List.filter
      (fun id -> not (List.mem id t.restarted || List.mem id t.abandoned))
      t.declared_dead
  in
  List.map (Fmt.str "instance %s declared dead but neither restarted nor abandoned")
    unaccounted
  @ (if t.done_ && not (t.finished || t.abandoned <> []) then
       [ "run ended without finishing and without abandoning instances" ]
     else [])

let run cluster ~kind ~policy ?scrub ?(faults = []) ~id ~gang
    ~units ~workload () =
  if gang < 1 then invalid_arg "Supervisor.run: gang must be >= 1";
  if units < 1 then invalid_arg "Supervisor.run: units must be >= 1";
  if policy.checkpoint_interval < 1 then
    invalid_arg "Supervisor.run: checkpoint_interval must be >= 1";
  let slot_ids = Array.init gang (fun k -> Fmt.str "%s.%d" id k) in
  let t =
    {
      cluster;
      kind;
      policy;
      workload;
      total_units = units;
      slot_ids;
      instances = [];
      snapshots = [];
      snapshot_units = 0;
      snapshots_prev = [];
      snapshot_units_prev = 0;
      snapshot_history = [];
      scrub_config = scrub;
      scrubber = None;
      injector = None;
      units_done = 0;
      checkpoints = 0;
      recoveries = 0;
      monitor_gen = 0;
      segment_start = Engine.now cluster.Cluster.engine;
      useful = 0.0;
      wasted = 0.0;
      latencies_rev = [];
      ckpt_time = 0.0;
      events_rev = [];
      declared_dead = [];
      restarted = [];
      abandoned = [];
      finished = false;
      done_ = false;
    }
  in
  Engine.register_audit cluster.Cluster.engine (fun () ->
      List.map
        (fun detail -> { Engine.subject = "supervisor"; invariant = "dead-accounted"; detail })
        (audit t));
  (* Kill our instances placed on a node the moment it crash-stops, so
     their guest fibers unwind at the next pause point. *)
  Cluster.on_node_crash cluster (fun node_index ->
      List.iter
        (fun (inst : Approach.instance) ->
          if inst.Approach.node.Cluster.index = node_index then Vmsim.Vm.kill inst.Approach.vm)
        t.instances);
  let initial_nodes = take gang (live_node_indices t ~excluding:[]) in
  if List.length initial_nodes < gang then invalid_arg "Supervisor.run: not enough live nodes";
  let insts =
    deploy_gang t
      ~nodes:(List.map (Cluster.node cluster) initial_nodes)
      ~ids:(Array.to_list slot_ids)
  in
  t.instances <- insts;
  record t
    (Deployed { at = now t; ids = List.map (fun (i : Approach.instance) -> i.Approach.id) insts });
  workload.setup insts;
  (* Mandatory initial checkpoint: recovery always has a snapshot set to
     fall back to, even if the first failure precedes the first interval. *)
  t.segment_start <- now t;
  take_checkpoint t;
  if t.snapshots = [] then failwith "Supervisor.run: initial checkpoint failed";
  (match scrub with
  | None -> ()
  | Some config ->
      let s =
        Scrubber.create cluster.Cluster.service ~home:cluster.Cluster.supervisor_host
          ~config ()
      in
      Scrubber.start s;
      t.scrubber <- Some s);
  if faults <> [] then
    t.injector <- Some (Faults.start (engine t) ~script:faults ~handlers:(fault_handlers t));
  supervise t;
  (match t.scrubber with Some s -> Scrubber.stop s | None -> ());
  Option.iter Faults.stop t.injector;
  t.done_ <- true;
  t
