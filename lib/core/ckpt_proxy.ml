open Simcore

exception Not_local

type t = {
  cluster : Cluster.t;
  pnode : Cluster.node;
  mutable failed : int;
  mutable transients : int;
}

let create cluster ~node = { cluster; pnode = node; failed = 0; transients = 0 }

let m_served = Obs.Metrics.counter ~component:"proxy" ~name:"requests_served"
let m_failed = Obs.Metrics.counter ~component:"proxy" ~name:"requests_failed"
let m_transients = Obs.Metrics.counter ~component:"proxy" ~name:"transient_retries"

(* Stop-the-world window of a checkpoint request: suspend entry to resume
   exit. It covers whatever the [suspended] action does — the whole
   snapshot for stop-the-world and qcow2 requests, only the freeze for a
   background-shipped live one. *)
let m_suspend_seconds = Obs.Metrics.histogram ~component:"ckpt" ~name:"suspend_seconds"

(* Transient local-disk errors during the snapshot are retried in place
   (with the VM still suspended, so the snapshot stays consistent) rather
   than surfaced as a failed checkpoint request. *)
let snapshot_retries = 3
let snapshot_backoff = 0.02

let trace t engine fmt =
  Trace.emit engine
    ~component:(Fmt.str "proxy@%s" (Netsim.Net.host_name t.pnode.Cluster.host))
    fmt

(* Run [action] with transient local-disk errors retried in place with
   exponential backoff. What "in place" means depends on the phase: the
   suspended action retries with the VM still suspended (so the snapshot
   stays consistent), the shipped action with the VM running (the frozen
   epoch is what stays consistent). *)
let attempt_with_retries t engine action =
  let rec attempt n =
    try Ok (action ()) with
    | Engine.Cancelled as exn -> raise exn
    | Faults.Injected_error _ when n < snapshot_retries ->
        t.transients <- t.transients + 1;
        Obs.Metrics.incr m_transients;
        trace t engine "transient snapshot error, retry %d/%d" (n + 1) snapshot_retries;
        Obs.Span.with_ engine ~component:"proxy" ~name:"proxy.backoff" (fun () ->
            Engine.sleep engine (snapshot_backoff *. float_of_int (1 lsl n)));
        attempt (n + 1)
    | exn -> Error exn
  in
  attempt 0

let authenticate t ~vm =
  (* Authentication: only VM instances hosted on this compute node may
     request checkpoints. *)
  if not (Vmsim.Vm.host vm == t.pnode.Cluster.host) then raise Not_local;
  let engine = t.cluster.Cluster.engine in
  (* Local REST round-trip. *)
  Obs.Span.with_ engine ~component:"proxy" ~name:"proxy.request" (fun () ->
      Engine.sleep engine t.cluster.Cluster.cal.Calibration.proxy_request_cost);
  engine

let serve t engine ~vm = function
  | Ok value ->
      Obs.Metrics.incr m_served;
      trace t engine "checkpoint request served for %s" (Vmsim.Vm.name vm);
      value
  | Error exn ->
      t.failed <- t.failed + 1;
      Obs.Metrics.incr m_failed;
      raise exn

let request t ~vm ~suspended ~shipped =
  let engine = authenticate t ~vm in
  let suspended_at = Engine.now engine in
  Vmsim.Vm.suspend vm;
  let result = attempt_with_retries t engine suspended in
  (* The proxy resumes the VM regardless of the outcome and notifies the
     guest of the result. *)
  Vmsim.Vm.resume vm;
  Obs.Metrics.observe m_suspend_seconds (Engine.now engine -. suspended_at);
  match result with
  | Error _ as err -> serve t engine ~vm err
  | Ok value ->
      (* The guest is already running again; whatever is left ships in the
         background. Transient errors retry against the intact frozen
         state, so the published snapshot still describes the instant of
         the suspend. *)
      serve t engine ~vm (attempt_with_retries t engine (fun () -> shipped value))

let failures t = t.failed
let transient_retries t = t.transients
