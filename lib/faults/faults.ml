open Simcore

exception Injected_error of string

let () =
  Printexc.register_printer (function
    | Injected_error what -> Some (Fmt.str "Faults.Injected_error(%s)" what)
    | _ -> None)

type action =
  | Crash_host of int
  | Fail_provider of int
  | Fail_metadata of int
  | Transient_disk of { target : int; ops : int }
  | Degrade_links of { factor : float; duration : float }
  | Partition of { group : int list; duration : float }
  | Silent_corruption of { provider : int; chunk : int }
  | Crash_commit of { point : int }
  | Crash_compaction of { point : int }
  | Crash_service of int
  | Crash_site

type event = { at : float; action : action }
type script = event list

let pp_action ppf = function
  | Crash_host i -> Fmt.pf ppf "crash-host %d" i
  | Fail_provider i -> Fmt.pf ppf "fail-provider %d" i
  | Fail_metadata i -> Fmt.pf ppf "fail-metadata %d" i
  | Transient_disk { target; ops } -> Fmt.pf ppf "transient-disk %d (%d ops)" target ops
  | Degrade_links { factor; duration } ->
      Fmt.pf ppf "degrade-links x%.2f for %.1fs" factor duration
  | Partition { group; duration } ->
      Fmt.pf ppf "partition {%a} for %.1fs" Fmt.(list ~sep:comma int) group duration
  | Silent_corruption { provider; chunk } ->
      Fmt.pf ppf "silent-corruption provider %d chunk %d" provider chunk
  | Crash_commit { point } -> Fmt.pf ppf "crash-commit point %d" point
  | Crash_compaction { point } -> Fmt.pf ppf "crash-compaction point %d" point
  | Crash_service i -> Fmt.pf ppf "crash-service %d" i
  | Crash_site -> Fmt.pf ppf "crash-site"

let pp_event ppf e = Fmt.pf ppf "t=%.3f %a" e.at pp_action e.action

(* ------------------------------------------------------------------ *)
(* Profile-driven script generation *)

let of_profile ~rng ~mtbf ~horizon ~hosts ~providers ?(weights = (5, 3, 2, 1))
    ?(corrupt_weight = 0) ?(service_weight = 0) () =
  if mtbf <= 0.0 then invalid_arg "Faults.of_profile: mtbf must be positive";
  if hosts < 1 then invalid_arg "Faults.of_profile: hosts must be positive";
  let wc, wp, wt, wd = weights in
  let total = wc + wp + wt + wd + corrupt_weight + service_weight in
  if total <= 0 then invalid_arg "Faults.of_profile: weights sum to zero";
  let pick_action () =
    let roll = Rng.int rng total in
    if roll < wc then Crash_host (Rng.int rng hosts)
    else if roll < wc + wp then
      Fail_provider (Rng.int rng (max 1 providers))
    else if roll < wc + wp + wt then
      Transient_disk { target = Rng.int rng hosts; ops = 1 + Rng.int rng 3 }
    else if roll < wc + wp + wt + wd then Degrade_links { factor = 4.0; duration = 10.0 }
    else if roll < wc + wp + wt + wd + service_weight then
      (* Background-service hosts: 0 = scrubber, 1 = compactor fail-stop,
         2 = compactor armed crash point; the embedder resolves each. *)
      Crash_service (Rng.int rng 3)
    else
      (* [chunk] is an abstract ordinal the handler resolves against the
         provider's stored-chunk list (mod its length), so the script stays
         meaningful whatever the store holds at injection time. *)
      Silent_corruption
        { provider = Rng.int rng (max 1 providers); chunk = Rng.int rng 1024 }
  in
  let rec go t acc =
    let t = t +. Rng.exponential rng mtbf in
    if t >= horizon then List.rev acc
    else go t ({ at = t; action = pick_action () } :: acc)
  in
  go 0.0 []

(* ------------------------------------------------------------------ *)
(* Injection *)

type handlers = {
  crash_host : int -> unit;
  fail_provider : int -> unit;
  fail_metadata : int -> unit;
  transient_disk : target:int -> ops:int -> unit;
  degrade_links : factor:float -> duration:float -> unit;
  partition : group:int list -> duration:float -> unit;
  silent_corruption : provider:int -> chunk:int -> unit;
  crash_commit : point:int -> unit;
  crash_compaction : point:int -> unit;
  crash_service : int -> unit;
  crash_site : unit -> unit;
}

let null_handlers =
  {
    crash_host = (fun _ -> ());
    fail_provider = (fun _ -> ());
    fail_metadata = (fun _ -> ());
    transient_disk = (fun ~target:_ ~ops:_ -> ());
    degrade_links = (fun ~factor:_ ~duration:_ -> ());
    partition = (fun ~group:_ ~duration:_ -> ());
    silent_corruption = (fun ~provider:_ ~chunk:_ -> ());
    crash_commit = (fun ~point:_ -> ());
    crash_compaction = (fun ~point:_ -> ());
    crash_service = (fun _ -> ());
    crash_site = (fun () -> ());
  }

type t = {
  fiber : Engine.fiber;
  applied_rev : event list ref; (* newest first *)
}

let apply handlers = function
  | Crash_host i -> handlers.crash_host i
  | Fail_provider i -> handlers.fail_provider i
  | Fail_metadata i -> handlers.fail_metadata i
  | Transient_disk { target; ops } -> handlers.transient_disk ~target ~ops
  | Degrade_links { factor; duration } -> handlers.degrade_links ~factor ~duration
  | Partition { group; duration } -> handlers.partition ~group ~duration
  | Silent_corruption { provider; chunk } -> handlers.silent_corruption ~provider ~chunk
  | Crash_commit { point } -> handlers.crash_commit ~point
  | Crash_compaction { point } -> handlers.crash_compaction ~point
  | Crash_service i -> handlers.crash_service i
  | Crash_site -> handlers.crash_site ()

let start engine ~script ~handlers =
  (* Stable sort keeps script order for events at equal times. *)
  let ordered = List.stable_sort (fun a b -> Float.compare a.at b.at) script in
  let applied_rev = ref [] in
  let start_time = Engine.now engine in
  let injector () =
    List.iter
      (fun e ->
        let due = start_time +. e.at in
        let dt = due -. Engine.now engine in
        if dt > 0.0 then Engine.sleep engine dt;
        Trace.emit engine ~component:"faults" "inject: %a" pp_action e.action;
        apply handlers e.action;
        applied_rev := { e with at = Engine.now engine } :: !applied_rev)
      ordered
  in
  let fiber = Engine.Fiber.spawn engine ~name:"faults.injector" injector in
  { fiber; applied_rev }

let stop t = Engine.Fiber.cancel t.fiber
let applied t = List.rev !(t.applied_rev)

(* ------------------------------------------------------------------ *)
(* Transient-fault retry discipline *)

let with_retries engine ?(retries = 3) ~label f =
  let rec go attempt =
    try f ()
    with Injected_error what when attempt < retries ->
      Trace.emit engine ~component:label "transient fault (%s), retry %d/%d" what
        (attempt + 1) retries;
      Engine.sleep engine (0.01 *. float_of_int (1 lsl attempt));
      go (attempt + 1)
  in
  go 0
