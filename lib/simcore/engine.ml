exception Cancelled
exception Fiber_failure of string * exn
exception Audit_failure of string * string list

let () =
  Printexc.register_printer (function
    | Fiber_failure (name, exn) ->
        Some (Printf.sprintf "Fiber_failure(%s: %s)" name (Printexc.to_string exn))
    | Audit_failure (subject, violations) ->
        Some
          (Printf.sprintf "Audit_failure(%s: %s)" subject (String.concat "; " violations))
    | _ -> None)

type violation = { subject : string; invariant : string; detail : string }

let violation ~subject invariant fmt =
  Fmt.kstr (fun detail -> { subject; invariant; detail }) fmt

let pp_violation ppf x =
  Fmt.pf ppf "%s: invariant %S violated: %s" x.subject x.invariant x.detail

let audits_enabled_flag =
  ref (match Sys.getenv_opt "BLOBCR_AUDIT" with Some ("0" | "") | None -> false | Some _ -> true)

let audits_enabled () = !audits_enabled_flag
let set_audits_enabled v = audits_enabled_flag := v

type outcome = Completed | Cancelled_outcome | Failed of exn

(* A resumer delivers a value to a suspended fiber. It returns [false] when
   the suspension was already consumed (normally or by cancellation), which
   lets resources such as semaphores skip dead waiters without losing
   tokens. *)
type 'a resumer = 'a -> bool

type t = {
  mutable now : float;
  mutable prev_now : float;  (* [now] before the event being executed was popped *)
  queue : (unit -> unit) Event_queue.t;
  seed : int;
  mutable current : fiber option;
  mutable error : (string * exn) option;
  mutable live : int;
  mutable blocked : int;
  mutable next_id : int;
  mutable audits : (unit -> violation list) list; (* newest first *)
}

and fiber = {
  id : int;
  fname : string;
  engine : t;
  mutable finished : bool;
  mutable cancel_requested : bool;
  mutable parked : parked;
  mutable suspensions : int;
      (* Bumped when the fiber parks and again when it is unparked, so a
         resumer holding the value from parking time is one-shot: it is
         live only while the counter still equals it. *)
  done_ivar : outcome ivar;
}

(* The continuation of a fiber blocked on a [Suspend], or [Running]. *)
and parked = Running | Parked : ('a, unit) Effect.Deep.continuation -> parked
and 'a ivar_state = Iempty of 'a resumer list | Ifull of 'a
and 'a ivar = { iengine : t; mutable istate : 'a ivar_state }

type _ Effect.t +=
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Sleep : float -> unit Effect.t

let create ?(seed = 42) ?schedule () =
  {
    now = 0.0;
    prev_now = 0.0;
    queue = Event_queue.create ?schedule ();
    seed;
    current = None;
    error = None;
    live = 0;
    blocked = 0;
    next_id = 0;
    audits = [];
  }

let register_audit t check = t.audits <- check :: t.audits
let audit_count t = List.length t.audits
let audit t = List.concat_map (fun check -> check ()) (List.rev t.audits)

let now t = t.now
let derived_rng t name = Rng.of_key ~seed:t.seed name
let current_fiber t = t.current
let live_fibers t = t.live
let blocked_fibers t = t.blocked
let enqueue t ~time f = Event_queue.add t.queue ~time f
let at t time f = enqueue t ~time f
let post t f = enqueue t ~time:t.now f

(* The in-place rule. An event added at [now] while no other event is due
   at or before [now] is the next event popped under every schedule: the
   lane is empty and the heap's top is later. Running its work here
   instead, after consuming its insertion index with [Event_queue.skip],
   therefore executes the same steps in the same order, and every later
   event keeps its [(time, rank, seq)] key. It is only sound at the tail
   of an event, where the queued event would have been popped next.
   [in_place] answers whether the rule applies and, if so, consumes the
   index. *)
let in_place t =
  if Event_queue.due_by t.queue t.now then false
  else begin
    Event_queue.skip t.queue;
    true
  end

(* Whether a blocking primitive whose value is ready may return without
   parking the calling fiber: parking would resume it at once, in the next
   event. A cancel-requested fiber still parks, so it unwinds with
   [Cancelled] as before. *)
let ready_in_place t =
  match t.current with
  | Some fiber -> (not fiber.cancel_requested) && in_place t
  | None -> false

let continue_now t f = if Option.is_none t.current && in_place t then f () else post t f

let set_error t name exn =
  if t.error = None then t.error <- Some (name, exn)

let ivar_create engine = { iengine = engine; istate = Iempty [] }

let ivar_fill iv v =
  match iv.istate with
  | Ifull _ -> invalid_arg "Ivar.fill: already filled"
  | Iempty waiters ->
      iv.istate <- Ifull v;
      List.iter (fun resume -> ignore (resume v)) (List.rev waiters)

let finish t fiber outcome =
  fiber.finished <- true;
  t.live <- t.live - 1;
  ivar_fill fiber.done_ivar outcome

(* Fiber bodies run with [t.current] set to their fiber; the previous
   value is restored afterwards, on exceptions too ([restore_raise]). The
   save/restore is written out in each entry point (start, resume,
   cancel) rather than taken as a closure, which would cost an allocation
   per event. *)
let restore_raise t saved exn =
  let bt = Printexc.get_raw_backtrace () in
  t.current <- saved;
  Printexc.raise_with_backtrace exn bt

let unpark t fiber =
  fiber.parked <- Running;
  fiber.suspensions <- fiber.suspensions + 1;
  t.blocked <- t.blocked - 1

let run_resume t fiber k v =
  let saved = t.current in
  t.current <- Some fiber;
  match Effect.Deep.continue k v with
  | () -> t.current <- saved
  | exception exn -> restore_raise t saved exn

let run_cancel t fiber k =
  let saved = t.current in
  t.current <- Some fiber;
  match Effect.Deep.discontinue k Cancelled with
  | () -> t.current <- saved
  | exception exn -> restore_raise t saved exn

(* The resumer handed to a [Suspend]'s register function: live only while
   the fiber is still parked at suspension number [token]. *)
let resume_parked t fiber token k v =
  if fiber.suspensions <> token then false
  else begin
    unpark t fiber;
    enqueue t ~time:t.now (fun () -> run_resume t fiber k v);
    true
  end

(* A [sleep]'s timer event. Its whole work is the resume, so a timer that
   fires alone continues the fiber here (the in-place rule). A stale token
   means the sleeper was cancelled: the timer wakes nothing and puts the
   clock back, so a drain does not end at a time at which nothing ran.
   The queue's own record of the pop stays, so lane membership is
   unchanged. *)
let wake_sleeper t fiber token k =
  if fiber.suspensions = token then begin
    unpark t fiber;
    if in_place t then run_resume t fiber k ()
    else post t (fun () -> run_resume t fiber k ())
  end
  else t.now <- t.prev_now

let park t fiber k =
  let token = fiber.suspensions + 1 in
  fiber.suspensions <- token;
  fiber.parked <- Parked k;
  t.blocked <- t.blocked + 1;
  token

(* Runs [f] as the body of [fiber] under the effect handler that implements
   blocking. Every blocking primitive performs [Suspend register] (unless
   its value is ready in place); the handler parks the continuation in the
   fiber, hands [register] a one-shot resumer, and returns to the
   scheduler. Resumers deliver the value by scheduling an event that
   continues the parked continuation. [sleep] performs [Sleep d], whose
   timer event resumes the fiber through [wake_sleeper] without a resumer
   closure. *)
let start_fiber t fiber f =
  let open Effect.Deep in
  let saved = t.current in
  t.current <- Some fiber;
  match
    match_with
      (fun () ->
        if fiber.cancel_requested then raise Cancelled;
        f ())
      ()
      {
        retc = (fun () -> finish t fiber Completed);
        exnc =
          (fun exn ->
            match exn with
            | Cancelled -> finish t fiber Cancelled_outcome
            | exn ->
                finish t fiber (Failed exn);
                set_error t fiber.fname exn);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if fiber.cancel_requested then discontinue k Cancelled
                    else register (resume_parked t fiber (park t fiber k) k))
            | Sleep d ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if fiber.cancel_requested then discontinue k Cancelled
                    else
                      let token = park t fiber k in
                      enqueue t ~time:(t.now +. d) (fun () -> wake_sleeper t fiber token k))
            | _ -> None);
      }
  with
  | () -> t.current <- saved
  | exception exn -> restore_raise t saved exn

let spawn_fiber t ?(name = "fiber") f =
  let fiber =
    {
      id = t.next_id;
      fname = name;
      engine = t;
      finished = false;
      cancel_requested = false;
      parked = Running;
      suspensions = 0;
      done_ivar = ivar_create t;
    }
  in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  enqueue t ~time:t.now (fun () -> start_fiber t fiber f);
  fiber

let cancel_fiber fiber =
  if not fiber.finished then begin
    fiber.cancel_requested <- true;
    match fiber.parked with
    | Parked k ->
        let t = fiber.engine in
        unpark t fiber;
        enqueue t ~time:t.now (fun () -> run_cancel t fiber k)
    | Running -> ()
  end

let suspend (register : 'a resumer -> unit) : 'a = Effect.perform (Suspend register)

let sleep _t d =
  if d < 0.0 then invalid_arg "Engine.sleep: negative duration";
  Effect.perform (Sleep d)

let after t d f =
  if d < 0.0 then invalid_arg "Engine.after: negative duration";
  enqueue t ~time:(t.now +. d) (fun () -> continue_now t f)

let yield t = sleep t 0.0

let check_error t =
  match t.error with
  | Some (name, exn) ->
      t.error <- None;
      raise (Fiber_failure (name, exn))
  | None -> ()

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    t.prev_now <- t.now;
    t.now <- Event_queue.next_time t.queue;
    let ev = Event_queue.take t.queue in
    ev ();
    check_error t;
    true
  end

let run t =
  while step t do
    ()
  done;
  (* Teardown audit: at quiescence every registered structural invariant
     must hold (debug builds only, see BLOBCR_AUDIT). The first check that
     reports violations names the failure. *)
  if audits_enabled () then
    List.iter
      (fun check ->
        match check () with
        | [] -> ()
        | first :: _ as vs ->
            raise (Audit_failure (first.subject, List.map (Fmt.str "%a" pp_violation) vs)))
      (List.rev t.audits)

let run_until t limit =
  let rec go () =
    match Event_queue.peek_time t.queue with
    | Some time when time <= limit ->
        ignore (step t);
        go ()
    | _ -> ()
  in
  go ();
  if t.now < limit then t.now <- limit

module Group = struct
  type t = { mutable members : fiber list }

  let create () = { members = [] }
  let add g fiber = g.members <- fiber :: g.members

  let cancel _engine g =
    List.iter cancel_fiber g.members

  let live g = List.length (List.filter (fun f -> not f.finished) g.members)
end

module Ivar = struct
  type 'a t = 'a ivar

  let create = ivar_create
  let fill = ivar_fill

  let read iv =
    match iv.istate with
    | Ifull v when ready_in_place iv.iengine -> v
    | Ifull _ | Iempty _ ->
        suspend (fun resume ->
            match iv.istate with
            | Ifull v -> ignore (resume v)
            | Iempty waiters -> iv.istate <- Iempty (resume :: waiters))

  let is_filled iv = match iv.istate with Ifull _ -> true | Iempty _ -> false
end

module Fiber = struct
  type t = fiber
  type nonrec outcome = outcome = Completed | Cancelled_outcome | Failed of exn

  let spawn engine ?name ?group f =
    let fiber = spawn_fiber engine ?name f in
    (match group with Some g -> Group.add g fiber | None -> ());
    fiber

  let name f = f.fname
  let id f = f.id
  let cancel = cancel_fiber
  let is_finished f = f.finished
  let await f = Ivar.read f.done_ivar

  let join f =
    match await f with
    | Completed | Cancelled_outcome -> ()
    | Failed exn -> raise (Fiber_failure (f.fname, exn))
end

let all t ?(name = "all") fs =
  let prefix = name ^ "." in
  let fibers = List.mapi (fun i f -> Fiber.spawn t ~name:(prefix ^ string_of_int i) f) fs in
  List.iter Fiber.join fibers

module Mailbox = struct
  type nonrec 'a t = {
    engine : t;
    messages : 'a Queue.t;
    waiters : 'a resumer Queue.t;
  }

  let create engine = { engine; messages = Queue.create (); waiters = Queue.create () }

  (* Deliver to the oldest live waiter, dropping dead ones, else enqueue. *)
  let rec send mb v =
    if Queue.is_empty mb.waiters then Queue.add v mb.messages
    else if not (Queue.pop mb.waiters v) then send mb v

  let recv mb =
    if (not (Queue.is_empty mb.messages)) && ready_in_place mb.engine then
      Queue.pop mb.messages
    else
      suspend (fun resume ->
          if Queue.is_empty mb.messages then Queue.add resume mb.waiters
          else ignore (resume (Queue.pop mb.messages)))

  let length mb = Queue.length mb.messages
end

module Semaphore = struct
  type nonrec t = {
    engine : t;
    mutable count : int;
    waiters : unit resumer Queue.t;
  }

  let create engine count =
    if count < 0 then invalid_arg "Semaphore.create";
    { engine; count; waiters = Queue.create () }

  let acquire s =
    if s.count > 0 && ready_in_place s.engine then s.count <- s.count - 1
    else
      suspend (fun resume ->
          if s.count > 0 then begin
            s.count <- s.count - 1;
            ignore (resume ())
          end
          else Queue.add resume s.waiters)

  let acquire_then s f =
    if s.count > 0 then begin
      s.count <- s.count - 1;
      continue_now s.engine f
    end
    else
      Queue.add
        (fun () ->
          post s.engine f;
          true)
        s.waiters

  let release s =
    let rec wake () =
      if Queue.is_empty s.waiters then s.count <- s.count + 1
      else if Queue.pop s.waiters () then ()
      else wake ()
    in
    wake ()

  let with_held s f =
    acquire s;
    match f () with
    | v ->
        release s;
        v
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        release s;
        Printexc.raise_with_backtrace exn bt

  let available s = s.count
end
