open Simcore

type branch_error = { index : int; label : string; stage : string; error : exn }

type 'a partial = { completed : (int * 'a) list; failed : branch_error list }

exception Partial_failure of string

let () =
  Printexc.register_printer (function
    | Partial_failure msg -> Some ("Protocol.Partial_failure: " ^ msg)
    | _ -> None)

let pp_branch_error ppf e =
  Fmt.pf ppf "branch %d (%s) failed during %s: %s" e.index e.label e.stage
    (Printexc.to_string e.error)

type error_class = [ `Transient | `Unavailable | `Service_crash | `Cancelled | `Fatal ]

(* Recovery dispatch is driven by exception *type*, never by message
   strings: each class names the remedy, and anything unrecognized is fatal
   by design (fail loudly rather than retry blindly). *)
let error_class : exn -> error_class = function
  | Faults.Injected_error _ | Storage.Disk.Full _ -> `Transient
  | Blobseer.Types.Provider_down _ -> `Unavailable
  | Blobseer.Types.Service_crashed _ -> `Service_crash
  | Engine.Cancelled -> `Cancelled
  | _ -> `Fatal

let pp_error_class ppf (c : error_class) =
  Fmt.string ppf
    (match c with
    | `Transient -> "transient"
    | `Unavailable -> "unavailable"
    | `Service_crash -> "service-crash"
    | `Cancelled -> "cancelled"
    | `Fatal -> "fatal")

(* Internal: tags an exception with the protocol stage it escaped from. *)
exception Staged of string * exn

(* Run one labelled action per branch in its own fiber and collect typed
   per-branch outcomes instead of letting the first exception abort the
   join. A branch whose VM fail-stopped mid-action unwinds with
   [Engine.Cancelled] (from pause points / proxy suspend), which is
   recorded like any other error: the caller — typically the supervisor —
   decides whether to retry the failed subset.

   Branches run outside any VM group, so a branch stranded on a collective
   (e.g. a drain barrier missing a dead rank) blocks forever; the
   supervisor handles that by running the whole protocol call inside a
   cancellable worker fiber and abandoning it on failure detection. *)
let run_branches engine ~name branches =
  let n = List.length branches in
  let results = Array.make n None in
  let body i (label, action) () =
    match action () with
    | value -> results.(i) <- Some (Ok value)
    | exception ((Stack_overflow | Out_of_memory | Assert_failure _) as exn) -> raise exn
    | exception Staged (stage, error) ->
        results.(i) <- Some (Error { index = i; label; stage; error })
    | exception error ->
        results.(i) <- Some (Error { index = i; label; stage = "?"; error })
  in
  let fibers =
    List.mapi
      (fun i branch ->
        Engine.Fiber.spawn engine ~name:(Fmt.str "%s.%d" name i) (body i branch))
      branches
  in
  List.iter (fun fiber -> ignore (Engine.Fiber.await fiber)) fibers;
  let completed = ref [] and failed = ref [] in
  Array.iteri
    (fun i -> function
      | Some (Ok value) -> completed := (i, value) :: !completed
      | Some (Error err) -> failed := err :: !failed
      | None ->
          (* Unreachable: every awaited branch records an outcome. *)
          failed :=
            { index = i; label = "?"; stage = "?"; error = Failure (name ^ ": branch vanished") }
            :: !failed)
    results;
  { completed = List.rev !completed; failed = List.rev !failed }

let staged stage f = try f () with exn -> raise (Staged (stage, exn))

let finish partial =
  if partial.failed = [] then Ok (List.map snd partial.completed) else Error partial

let global_checkpoint ?(mode = Approach.stop_the_world) (cluster : Cluster.t) ~instances
    ~dump =
  let branch (inst : Approach.instance) () =
    Obs.Span.with_ cluster.engine ~component:"proto" ~name:"ckpt"
      ~attrs:[ ("instance", Obs.Record.Str inst.Approach.id) ]
    @@ fun () ->
    staged "dump" (fun () ->
        Obs.Span.with_ cluster.engine ~component:"proto" ~name:"ckpt.dump" (fun () ->
            dump inst));
    staged "snapshot" (fun () ->
        Obs.Span.with_ cluster.engine ~component:"proto" ~name:"ckpt.snapshot" (fun () ->
            Approach.request_checkpoint ~mode cluster inst))
  in
  finish
    (run_branches cluster.engine ~name:"global-checkpoint"
       (List.map (fun (inst : Approach.instance) -> (inst.Approach.id, branch inst)) instances))

let global_restart (cluster : Cluster.t) ~plan ~restore =
  let branch (node, id, snapshot) () =
    Obs.Span.with_ cluster.engine ~component:"proto" ~name:"restart"
      ~attrs:[ ("instance", Obs.Record.Str id) ]
    @@ fun () ->
    let inst =
      staged "restart" (fun () ->
          Obs.Span.with_ cluster.engine ~component:"proto" ~name:"restart.deploy" (fun () ->
              Approach.restart cluster ~node ~id snapshot))
    in
    staged "restore" (fun () ->
        Obs.Span.with_ cluster.engine ~component:"proto" ~name:"restart.restore" (fun () ->
            restore inst));
    inst
  in
  finish
    (run_branches cluster.engine ~name:"global-restart"
       (List.map (fun ((_, id, _) as step) -> (id, branch step)) plan))

let errors_summary failed =
  String.concat "; " (List.map (fun e -> Fmt.str "%a" pp_branch_error e) failed)

let global_checkpoint_exn ?mode cluster ~instances ~dump =
  match global_checkpoint ?mode cluster ~instances ~dump with
  | Ok snapshots -> snapshots
  | Error { failed; _ } ->
      raise (Partial_failure ("global checkpoint: " ^ errors_summary failed))

let global_restart_exn cluster ~plan ~restore =
  match global_restart cluster ~plan ~restore with
  | Ok instances -> instances
  | Error { failed; _ } ->
      raise (Partial_failure ("global restart: " ^ errors_summary failed))

let kill_all instances = List.iter Approach.kill instances
