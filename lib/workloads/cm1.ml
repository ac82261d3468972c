open Simcore
open Blobcr
open Vmsim
open Mpisim

type config = {
  procs_per_vm : int;
  subdomain_state_bytes : int;
  process_mem_factor : float;
  halo_bytes : int;
  compute_per_iteration : float;
  summary_every : int;
  summary_bytes : int;
}

let default_config =
  {
    procs_per_vm = 4;
    subdomain_state_bytes = 9_750 * Size.kib;
    process_mem_factor = 2.9;
    halo_bytes = 50 * 8 * 2 * 4; (* 50-point edge, 8-byte doubles, 2 ghost layers, 4 fields *)
    compute_per_iteration = 0.05;
    summary_every = 20;
    summary_bytes = 16 * Size.kib;
  }

type rank_state = {
  rank : int;
  inst : Approach.instance;
  endpoint : Comm.endpoint;
  mutable content : Payload.t;
  mutable step : int;
}

type t = {
  cluster : Cluster.t;
  cfg : config;
  ranks : rank_state array;
  grid_w : int;
  grid_h : int;
}

let state_seed rank step = Int64.of_int ((rank * 1_000_003) + step)

let near_square n =
  let rec best w = if n mod w = 0 then w else best (w - 1) in
  let w = best (int_of_float (sqrt (float_of_int n))) in
  (w, n / w)

let setup (cluster : Cluster.t) ~instances cfg =
  let nprocs = List.length instances * cfg.procs_per_vm in
  let comm = Comm.create cluster.Cluster.engine cluster.Cluster.net ~size:nprocs in
  let mem =
    int_of_float (float_of_int cfg.subdomain_state_bytes *. cfg.process_mem_factor)
  in
  let ranks =
    List.concat_map
      (fun (i, inst) ->
        List.init cfg.procs_per_vm (fun j ->
            let rank = (i * cfg.procs_per_vm) + j in
            let endpoint = Comm.attach comm ~rank ~vm:inst.Approach.vm in
            ignore (Vm.register_process inst.Approach.vm ~name:(Fmt.str "cm1.%d" rank) ~mem);
            {
              rank;
              inst;
              endpoint;
              content = Payload.pattern ~seed:(state_seed rank 0) cfg.subdomain_state_bytes;
              step = 0;
            }))
      (List.mapi (fun i inst -> (i, inst)) instances)
  in
  let grid_w, grid_h = near_square nprocs in
  { cluster; cfg; ranks = Array.of_list ranks; grid_w; grid_h }

let config t = t.cfg
let process_count t = Array.length t.ranks

let neighbours t rank =
  let x = rank mod t.grid_w and y = rank / t.grid_w in
  List.filter_map
    (fun (dx, dy) ->
      let nx = x + dx and ny = y + dy in
      if nx >= 0 && nx < t.grid_w && ny >= 0 && ny < t.grid_h then Some ((ny * t.grid_w) + nx)
      else None)
    [ (-1, 0); (1, 0); (0, -1); (0, 1) ]

let iterate t n =
  let engine = t.cluster.Cluster.engine in
  let run_rank rs () =
    for _ = 1 to n do
      Vm.pause_point rs.inst.Approach.vm;
      Engine.sleep engine t.cfg.compute_per_iteration;
      let ns = neighbours t rs.rank in
      List.iter (fun dst -> Comm.send rs.endpoint ~dst ~bytes:t.cfg.halo_bytes) ns;
      List.iter (fun src -> ignore (Comm.recv rs.endpoint ~src)) ns;
      rs.step <- rs.step + 1;
      rs.content <- Payload.pattern ~seed:(state_seed rs.rank rs.step) t.cfg.subdomain_state_bytes;
      if rs.step mod t.cfg.summary_every = 0 then
        Guest_fs.append_file
          (Vm.fs rs.inst.Approach.vm)
          ~path:(Fmt.str "/out/summary.%d" rs.rank)
          (Payload.pattern ~seed:(state_seed rs.rank (-rs.step)) t.cfg.summary_bytes);
      Comm.barrier rs.endpoint
    done
  in
  Engine.all engine ~name:"cm1-iterate"
    (Array.to_list (Array.map run_rank t.ranks))

(* Like {!iterate}, but survives gang failure: each rank body catches the
   [Cancelled] its dead VM raises at the next pause point; the first rank
   to notice cancels its siblings (they may be blocked on a receive from
   the dead rank and would otherwise never wake), and the join reports
   the gang down instead of killing the run. *)
let iterate_result t n =
  let engine = t.cluster.Cluster.engine in
  let down = ref false in
  let fibers = ref [] in
  let body rs () =
    try
      for _ = 1 to n do
        Vm.pause_point rs.inst.Approach.vm;
        Engine.sleep engine t.cfg.compute_per_iteration;
        let ns = neighbours t rs.rank in
        List.iter (fun dst -> Comm.send rs.endpoint ~dst ~bytes:t.cfg.halo_bytes) ns;
        List.iter (fun src -> ignore (Comm.recv rs.endpoint ~src)) ns;
        rs.step <- rs.step + 1;
        rs.content <-
          Payload.pattern ~seed:(state_seed rs.rank rs.step) t.cfg.subdomain_state_bytes;
        if rs.step mod t.cfg.summary_every = 0 then
          Guest_fs.append_file
            (Vm.fs rs.inst.Approach.vm)
            ~path:(Fmt.str "/out/summary.%d" rs.rank)
            (Payload.pattern ~seed:(state_seed rs.rank (-rs.step)) t.cfg.summary_bytes);
        Comm.barrier rs.endpoint
      done
    with Engine.Cancelled ->
      if not !down then begin
        down := true;
        List.iter Engine.Fiber.cancel !fibers
      end
  in
  fibers :=
    Array.to_list
      (Array.map
         (fun rs ->
           Engine.Fiber.spawn engine ~name:(Fmt.str "cm1-iterate.%d" rs.rank) (body rs))
         t.ranks);
  List.iter (fun f -> ignore (Engine.Fiber.await f)) !fibers;
  if !down then `Gang_down else `Done

(* Reposition every rank's step counter — restart paths restore subdomain
   {e content} from the checkpoint files but the iteration count lives in
   the driver, so resuming from a snapshot must rewind it explicitly to
   keep the state pattern deterministic. *)
let set_steps t n = Array.iter (fun rs -> rs.step <- n) t.ranks

let local_ranks t inst =
  Array.to_list t.ranks |> List.filter (fun rs -> rs.inst == inst)

let subdomain_path rank = Fmt.str "/ckpt/cm1/subdomain.%d" rank

let dump_app t inst =
  let locals = local_ranks t inst in
  let fs = Vm.fs inst.Approach.vm in
  Engine.all t.cluster.Cluster.engine
    (List.map
       (fun rs () ->
         Comm.drain_channels rs.endpoint;
         Guest_fs.write_file fs ~path:(subdomain_path rs.rank) rs.content)
       locals);
  Guest_fs.sync fs

let dump_blcr t inst =
  let locals = local_ranks t inst in
  Engine.all t.cluster.Cluster.engine
    (List.map (fun rs () -> Comm.drain_channels rs.endpoint) locals);
  ignore (Blcr.dump inst.Approach.vm)

let restore_app t inst =
  let fs = Vm.fs inst.Approach.vm in
  List.iter
    (fun rs ->
      match Guest_fs.read_file fs ~path:(subdomain_path rs.rank) with
      | content -> rs.content <- content
      | exception Not_found ->
          failwith (Fmt.str "Cm1.restore_app: missing subdomain file for rank %d" rs.rank))
    (local_ranks t inst)

let subdomain_digests t inst =
  List.map (fun rs -> Payload.digest rs.content) (local_ranks t inst)

(* Package CM1 as a supervised workload: one work unit = [iters_per_unit]
   iterations, application-level dumps. The instance binding is rebuilt on
   every (re)setup — a restart gang gets a fresh communicator — and resume
   rewinds the step counters to the checkpointed unit. *)
let supervised_workload (cluster : Cluster.t) cfg ~iters_per_unit =
  if iters_per_unit < 1 then invalid_arg "Cm1.supervised_workload";
  let current = ref None in
  let get () =
    match !current with
    | Some t -> t
    | None -> failwith "Cm1.supervised_workload: setup has not run"
  in
  {
    Supervisor.setup = (fun instances -> current := Some (setup cluster ~instances cfg));
    iterate = (fun () -> iterate_result (get ()) iters_per_unit);
    dump = (fun inst -> dump_app (get ()) inst);
    restore = (fun inst -> restore_app (get ()) inst);
    resumed = (fun units -> set_steps (get ()) (units * iters_per_unit));
  }
