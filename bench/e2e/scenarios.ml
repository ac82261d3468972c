(* The four benchmark workloads. Each builds its load from public calls
   only — Approach.deploy, Protocol.global_checkpoint/global_restart,
   Synthetic, Cm1, Vm.pause_point — and times every call on both clocks.

   A workload is set up once, then runs {e cycles}: one global operation
   (a checkpoint, or a restart on restart-storm) plus the application work
   between two of them. The first [prefix] cycles are the fixed,
   seed-determined amount of work every simulated-clock number and count
   comes from; further cycles only add wall-clock samples. *)

open Simcore
open Blobcr
open Vmsim
open Workloads

type size = Full | Tiny

let size_name = function Full -> "full" | Tiny -> "tiny"

(* The paper's testbed constants on 32 nodes. The base image is 256 MiB
   rather than the paper's 2 GiB: uploading it hashes every byte once per
   process (about 160 MiB/s of host time), and set-up is repeated in
   fresh processes to measure it; the 180 MiB boot hot set still fits. *)
let calibration = function
  | Full -> { Calibration.default with compute_nodes = 32; image_capacity = Size.mib_n 256 }
  | Tiny -> { Calibration.quick_test with image_capacity = Size.mib_n 16 }

type cycle = {
  ok : bool;  (** the global operation returned [Ok] *)
  t0 : float;  (** simulated start of the global operation *)
  latency : float;  (** its simulated duration *)
  wall : float;  (** wall seconds of the whole cycle *)
}

(* Bench-side call timings, summed over the measured prefix. Callback
   timings (dump, restore) are the wall interval from the first callback's
   start to the last one's return within a global operation: callbacks run
   in parallel fibers, so their own shares cannot be separated. *)
type timers = {
  mutable fill_wall : float;
  mutable dump_wall : float;
  mutable restore_wall : float;
  mutable iterate_wall : float;
  mutable iterate_sim : float;
  mutable ckpt_wall : float;  (** global checkpoint calls, dump callbacks excluded *)
  mutable restart_wall : float;  (** global restart calls, restore callbacks excluded *)
}

let fresh_timers () =
  {
    fill_wall = 0.0;
    dump_wall = 0.0;
    restore_wall = 0.0;
    iterate_wall = 0.0;
    iterate_sim = 0.0;
    ckpt_wall = 0.0;
    restart_wall = 0.0;
  }

type t = {
  op_root : string;
      (** root span of one global operation, ["ckpt"] or ["restart"]; also
          the prefix of its latency metrics *)
  prefix : int;
  timers : timers;
  cycle : int -> cycle;
  mirrors : unit -> Vdisk.Mirror.t list;
  user_bytes : unit -> int;  (** bytes the application dumped or wrote so far *)
  extra : t0:float -> Rig.metric list;  (** workload metrics over the prefix that began at [t0] *)
  verify : unit -> Rig.check list;  (** untimed verification after the measured phase *)
}

let names = [ "ckpt-burst"; "restart-storm"; "cm1-mpi"; "live-precopy" ]

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let engine (cluster : Cluster.t) = cluster.Cluster.engine

let mirror_of (inst : Approach.instance) =
  match inst.Approach.stack with
  | Approach.Mirror_stack m -> m
  | Approach.Qcow2_stack _ -> invalid_arg "bench: expected a BlobCR instance"

(* Wall seconds spent deploying the workload's instances during set-up. *)
let deploy_wall = ref 0.0

let deploy_all cluster ~vms =
  let slots = Array.make vms None in
  let (), w =
    Rig.timed (fun () ->
        Engine.all (engine cluster)
          (List.init vms (fun i () ->
               slots.(i) <-
                 Some
                   (Approach.deploy cluster Approach.Blobcr ~node:(Cluster.node cluster i)
                      ~id:(Fmt.str "vm%02d" i)))))
  in
  deploy_wall := !deploy_wall +. w;
  Array.to_list (Array.map Option.get slots)

(* Wall interval covered by a set of parallel callbacks. *)
type bracket = { mutable first : float; mutable last : float }

let bracket () = { first = Float.infinity; last = Float.neg_infinity }

let within b f =
  let t = Rig.wall () in
  if t < b.first then b.first <- t;
  Fun.protect f ~finally:(fun () ->
      let e = Rig.wall () in
      if e > b.last then b.last <- e)

let interval b = Float.max 0.0 (b.last -. b.first)

let timed_checkpoint ?mode cluster (timers : timers) ~instances ~dump =
  let b = bracket () in
  let t0 = Cluster.now cluster in
  let result, wall =
    Rig.timed (fun () ->
        Protocol.global_checkpoint ?mode cluster ~instances ~dump:(fun inst ->
            within b (fun () -> dump inst)))
  in
  timers.dump_wall <- timers.dump_wall +. interval b;
  timers.ckpt_wall <- timers.ckpt_wall +. (wall -. interval b);
  (result, t0, Cluster.now cluster -. t0)

let timed_restart cluster (timers : timers) ~plan ~restore =
  let b = bracket () in
  let t0 = Cluster.now cluster in
  let result, wall =
    Rig.timed (fun () ->
        Protocol.global_restart cluster ~plan ~restore:(fun inst -> within b (fun () -> restore inst)))
  in
  timers.restore_wall <- timers.restore_wall +. interval b;
  timers.restart_wall <- timers.restart_wall +. (wall -. interval b);
  (result, t0, Cluster.now cluster -. t0)

(* Untimed verification restart: every instance onto the node [vms]
   places further, so nothing restarts where it ran. *)
let verification_restart cluster ~instances ~snapshots =
  let nodes = Cluster.node_count cluster in
  let vms = List.length instances in
  Protocol.kill_all instances;
  Protocol.global_restart_exn cluster
    ~plan:
      (List.map2
         (fun (inst : Approach.instance) snap ->
           (Cluster.node cluster ((inst.Approach.node.Cluster.index + vms) mod nodes), inst.id, snap))
         instances snapshots)
    ~restore:(fun _ -> ())

let digest_check name ~expected ~actual =
  let pairs = List.combine expected actual in
  let passed = List.length (List.filter (fun (e, a) -> Int64.equal e a) pairs) in
  Rig.check name ~passed ~total:(List.length pairs)

(* ------------------------------------------------------------------ *)
(* ckpt-burst: the write path under gang contention *)

let ckpt_burst size cluster =
  let vms, buffer_bytes, prefix =
    match size with Full -> (16, Size.mib_n 2, 40) | Tiny -> (2, 256 * Size.kib, 3)
  in
  let timers = fresh_timers () in
  let instances = deploy_all cluster ~vms in
  let states = List.map (fun inst -> Synthetic.start inst ~buffer_bytes) instances in
  let state_of (inst : Approach.instance) =
    List.find (fun st -> Synthetic.instance st == inst) states
  in
  let last = ref None and cycles = ref 0 in
  let cycle _ =
    let start = Rig.wall () in
    let (), fill =
      Rig.timed (fun () ->
          Engine.all (engine cluster) (List.map (fun st () -> Synthetic.refill st) states))
    in
    timers.fill_wall <- timers.fill_wall +. fill;
    let result, t0, latency =
      timed_checkpoint cluster timers ~instances ~dump:(fun inst ->
          Synthetic.dump_app ~retain:1 (state_of inst))
    in
    incr cycles;
    (match result with Ok snaps -> last := Some snaps | Error _ -> ());
    { ok = Result.is_ok result; t0; latency; wall = Rig.wall () -. start }
  in
  let verify () =
    match !last with
    | None -> [ Rig.check "verify_restart_buffers" ~passed:0 ~total:vms ~detail:"no checkpoint" ]
    | Some snapshots ->
        let expected = List.map (fun st -> Payload.digest (Synthetic.buffer st)) states in
        let restored = verification_restart cluster ~instances ~snapshots in
        let actual =
          List.map (fun inst -> Payload.digest (Synthetic.buffer (Synthetic.restore_app inst))) restored
        in
        Protocol.kill_all restored;
        [ digest_check "verify_restart_buffers" ~expected ~actual ]
  in
  {
    op_root = "ckpt";
    prefix;
    timers;
    cycle;
    mirrors = (fun () -> List.map mirror_of instances);
    user_bytes = (fun () -> !cycles * vms * buffer_bytes);
    extra = (fun ~t0:_ -> []);
    verify;
  }

(* ------------------------------------------------------------------ *)
(* restart-storm: the read path — prefetch, lazy fetch, boot, mount *)

let restart_storm size cluster =
  let vms, buffer_bytes, prefix =
    match size with Full -> (16, Size.mib_n 4, 40) | Tiny -> (2, 512 * Size.kib, 3)
  in
  let timers = fresh_timers () in
  let nodes = Cluster.node_count cluster in
  let instances = deploy_all cluster ~vms in
  let states = List.map (fun inst -> Synthetic.start inst ~buffer_bytes) instances in
  let snapshots =
    Protocol.global_checkpoint_exn cluster ~instances ~dump:(fun inst ->
        Synthetic.dump_app (List.find (fun st -> Synthetic.instance st == inst) states))
  in
  let expected =
    List.map2
      (fun (inst : Approach.instance) st -> (inst.Approach.id, Payload.digest (Synthetic.buffer st)))
      instances states
  in
  Protocol.kill_all instances;
  let restored_ok = ref 0 and restored_total = ref 0 in
  let cycle r =
    let start = Rig.wall () in
    let plan =
      List.mapi
        (fun i ((inst : Approach.instance), snap) ->
          (Cluster.node cluster ((vms + i + r) mod nodes), inst.Approach.id, snap))
        (List.combine instances snapshots)
    in
    let result, t0, latency =
      timed_restart cluster timers ~plan ~restore:(fun inst ->
          let st = Synthetic.restore_app inst in
          incr restored_total;
          if Int64.equal (Payload.digest (Synthetic.buffer st)) (List.assoc inst.Approach.id expected)
          then incr restored_ok)
    in
    (match result with
    | Ok restarted -> Protocol.kill_all restarted
    | Error partial -> Protocol.kill_all (List.map snd partial.Protocol.completed));
    { ok = Result.is_ok result; t0; latency; wall = Rig.wall () -. start }
  in
  {
    op_root = "restart";
    prefix;
    timers;
    cycle;
    mirrors = (fun () -> []);
    user_bytes = (fun () -> 0);
    extra = (fun ~t0:_ -> []);
    verify =
      (fun () ->
        [ Rig.check "restored_buffers_match" ~passed:!restored_ok ~total:!restored_total ]);
  }

(* ------------------------------------------------------------------ *)
(* cm1-mpi: event loop and halo exchange, tiny incremental deltas *)

let cm1_mpi size cluster =
  let vms, procs, subdomain, iters, prefix =
    match size with
    | Full -> (8, 4, 256 * Size.kib, 125, 40)
    | Tiny -> (2, 2, 64 * Size.kib, 5, 3)
  in
  let cfg =
    {
      Cm1.default_config with
      procs_per_vm = procs;
      subdomain_state_bytes = subdomain;
      compute_per_iteration = 0.5;
    }
  in
  let timers = fresh_timers () in
  let instances = deploy_all cluster ~vms in
  let app = Cm1.setup cluster ~instances cfg in
  let last = ref None and cycles = ref 0 and made = ref 0.0 in
  let cycle i =
    let start = Rig.wall () in
    let s0 = Cluster.now cluster in
    let (), w = Rig.timed (fun () -> Cm1.iterate app iters) in
    timers.iterate_wall <- timers.iterate_wall +. w;
    timers.iterate_sim <- timers.iterate_sim +. (Cluster.now cluster -. s0);
    let result, t0, latency = timed_checkpoint cluster timers ~instances ~dump:(Cm1.dump_app app) in
    incr cycles;
    if i = prefix - 1 then made := Cluster.now cluster;
    (match result with Ok snaps -> last := Some snaps | Error _ -> ());
    { ok = Result.is_ok result; t0; latency; wall = Rig.wall () -. start }
  in
  let verify () =
    match !last with
    | None -> [ Rig.check "verify_subdomains" ~passed:0 ~total:(vms * procs) ~detail:"no checkpoint" ]
    | Some snapshots ->
        let expected = List.concat_map (Cm1.subdomain_digests app) instances in
        let restored = verification_restart cluster ~instances ~snapshots in
        let app' = Cm1.setup cluster ~instances:restored cfg in
        List.iter (Cm1.restore_app app') restored;
        let actual = List.concat_map (Cm1.subdomain_digests app') restored in
        Protocol.kill_all restored;
        [ digest_check "verify_subdomains" ~expected ~actual ]
  in
  {
    op_root = "ckpt";
    prefix;
    timers;
    cycle;
    mirrors = (fun () -> List.map mirror_of instances);
    user_bytes = (fun () -> !cycles * vms * procs * subdomain);
    extra = (fun ~t0 -> [ Rig.metric "makespan_s" "sim_s" (!made -. t0) ]);
    verify;
  }

(* ------------------------------------------------------------------ *)
(* live-precopy: commits racing guest writes *)

let live_precopy size cluster ~seed =
  let vms, rate, write_bytes, probe_every, interval, prefix =
    match size with
    | Full -> (4, 4.0 *. float_of_int Size.mib, 256 * Size.kib, 1e-3, 4.0, 40)
    | Tiny -> (2, 1.0 *. float_of_int Size.mib, 64 * Size.kib, 1e-2, 1.0, 3)
  in
  let slots = 8 in
  let timers = fresh_timers () in
  let e = engine cluster in
  let instances = deploy_all cluster ~vms in
  let epoch = ref 0 and stop = ref false in
  let written = ref 0 and late = ref 0.0 in
  (* Longest probe stall per (VM, epoch), and the write iterations each
     VM's writer put into each slot (newest first). *)
  let stalls = Array.make_matrix vms (prefix + 1) 0.0 in
  let history = Array.make_matrix vms slots [] in
  let slot_seed ~vm ~slot ~iter = Int64.of_int ((((seed * 7919) + vm) * 1_000_003) + (iter * slots) + slot) in
  let slot_path slot = Fmt.str "/precopy/slot.%d" slot in
  List.iteri
    (fun vm (inst : Approach.instance) ->
      let fs = Vm.fs inst.Approach.vm in
      (* Open loop: the k-th write is due at [start + k * period] whatever
         the checkpoints do; a stalled writer catches up without sleeping. *)
      let period = float_of_int write_bytes /. rate in
      let writer () =
        let start = Engine.now e in
        let iter = ref 0 in
        while not !stop do
          Vm.pause_point inst.Approach.vm;
          let slot = !iter mod slots in
          Guest_fs.write_file fs ~path:(slot_path slot)
            (Payload.pattern ~seed:(slot_seed ~vm ~slot ~iter:!iter) write_bytes);
          Guest_fs.sync fs;
          history.(vm).(slot) <- !iter :: history.(vm).(slot);
          written := !written + write_bytes;
          incr iter;
          let due = start +. (float_of_int !iter *. period) in
          let now = Engine.now e in
          if now < due then Engine.sleep e (due -. now) else late := Float.max !late (now -. due)
        done
      in
      let probe () =
        while not !stop do
          let t0 = Engine.now e in
          Vm.pause_point inst.Approach.vm;
          let stall = Engine.now e -. t0 in
          let ep = min !epoch prefix in
          if stall > stalls.(vm).(ep) then stalls.(vm).(ep) <- stall;
          Engine.sleep e probe_every
        done
      in
      ignore (Vm.spawn_process inst.Approach.vm ~name:"writer" ~mem:write_bytes writer);
      ignore (Vm.spawn_process inst.Approach.vm ~name:"probe" ~mem:Size.kib probe))
    instances;
  let mode = Approach.Live { rounds = 2; background = true } in
  let last = ref None in
  let written_at_t0 = ref 0 and written_at_end = ref 0 and end_time = ref 0.0 in
  let cycle i =
    let start = Rig.wall () in
    if i = 0 then written_at_t0 := !written;
    epoch := i;
    Engine.sleep e interval;
    let result, t0, latency =
      timed_checkpoint ~mode cluster timers ~instances ~dump:(fun inst ->
          Guest_fs.sync (Vm.fs inst.Approach.vm))
    in
    (match result with Ok snaps -> last := Some snaps | Error _ -> ());
    if i = prefix - 1 then begin
      written_at_end := !written;
      end_time := Cluster.now cluster
    end;
    { ok = Result.is_ok result; t0; latency; wall = Rig.wall () -. start }
  in
  let extra ~t0 =
    let samples = List.concat_map (fun row -> Array.to_list (Array.sub row 0 prefix)) (Array.to_list stalls) in
    let n = List.length samples in
    [
      Rig.metric "suspend_p50_s" "sim_s" (Rig.percentile 0.5 samples) ~samples:n;
      Rig.metric "suspend_p90_s" "sim_s" (Rig.percentile 0.9 samples) ~samples:n;
      Rig.metric "writer_mibps" "MiB/sim_s"
        (Rig.mib (!written_at_end - !written_at_t0) /. (!end_time -. t0))
        ~samples:vms;
      Rig.metric "workloads.writer_late_s" "sim_s" !late;
    ]
  in
  let verify () =
    stop := true;
    match !last with
    | None -> [ Rig.check "verify_slot_files" ~passed:0 ~total:(vms * slots) ~detail:"no checkpoint" ]
    | Some snapshots ->
        let restored = verification_restart cluster ~instances ~snapshots in
        let passed = ref 0 and total = ref 0 in
        List.iteri
          (fun vm (inst : Approach.instance) ->
            let fs = Vm.fs inst.Approach.vm in
            for slot = 0 to slots - 1 do
              let path = slot_path slot in
              if Guest_fs.exists fs ~path then begin
                incr total;
                let d = Payload.digest (Guest_fs.read_file fs ~path) in
                if
                  List.exists
                    (fun iter ->
                      Int64.equal d
                        (Payload.digest (Payload.pattern ~seed:(slot_seed ~vm ~slot ~iter) write_bytes)))
                    history.(vm).(slot)
                then incr passed
              end
            done)
          restored;
        Protocol.kill_all restored;
        [ Rig.check "verify_slot_files" ~passed:!passed ~total:(max !total 1) ]
  in
  {
    op_root = "ckpt";
    prefix;
    timers;
    cycle;
    mirrors = (fun () -> List.map mirror_of instances);
    user_bytes = (fun () -> !written_at_end - !written_at_t0);
    extra;
    verify;
  }

let setup name size cluster ~seed =
  match name with
  | "ckpt-burst" -> ckpt_burst size cluster
  | "restart-storm" -> restart_storm size cluster
  | "cm1-mpi" -> cm1_mpi size cluster
  | "live-precopy" -> live_precopy size cluster ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
