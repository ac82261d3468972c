open Simcore

type value = Int of int | Bytes of int | Float of float | Str of string

type span = {
  id : int;
  parent : int option;
  track : int;
  fiber : int;
  fiber_name : string;
  component : string;
  name : string;
  start_time : float;
  duration : float;
  attrs : (string * value) list;
}

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type metric = {
  m_component : string;
  m_name : string;
  m_kind : kind;
  samples : int;
  total : float;
  vmin : float;
  vmax : float;
  last : float;
}

type run = {
  spans : span list; (* in completion order *)
  metrics : metric list; (* sorted by (component, name) *)
  tracks : (int * string) list; (* track id -> label, in creation order *)
}

(* ------------------------------------------------------------------ *)
(* The metrics registry: every handle minted by [Metrics] registers its
   (component, name, kind) here, at module-initialization time, so a run
   snapshot lists each registered metric even when it was never touched —
   the table schema is stable across runs, which is what the determinism
   checks compare. *)

let registry : (string * string * kind) list ref = ref []

let register ~component ~name kind =
  if
    List.exists
      (fun (c, n, k) -> c = component && n = name && k <> kind)
      !registry
  then invalid_arg (Fmt.str "Obs: metric %s/%s re-registered with another kind" component name);
  if not (List.exists (fun (c, n, _) -> c = component && n = name) !registry) then
    registry := (component, name, kind) :: !registry

(* ------------------------------------------------------------------ *)
(* Collector state *)

type open_span = {
  o_id : int;
  o_parent : int option;
  o_track : int;
  o_fiber : int;
  o_fiber_name : string;
  o_component : string;
  o_name : string;
  o_start : float;
  mutable o_attrs : (string * value) list; (* reversed *)
}

type cell = {
  mutable c_samples : int;
  mutable c_total : float;
  mutable c_min : float;
  mutable c_max : float;
  mutable c_last : float;
}

type collector = {
  mutable spans_rev : span list;
  mutable next_span : int;
  (* Track assignment: one per engine seen, by physical equality — each
     engine is an independent simulated timeline. *)
  mutable engines : (Engine.t * int) list;
  mutable track_labels : (int * string) list; (* reversed *)
  mutable next_track : int;
  (* Innermost-first stacks of open spans, one per (track, fiber). *)
  stacks : (int * int, open_span list) Hashtbl.t;
  cells : (string * string, cell) Hashtbl.t;
}

let current : collector option ref = ref None

let recording () = !current <> None

let fresh_collector () =
  {
    spans_rev = [];
    next_span = 0;
    engines = [];
    track_labels = [];
    next_track = 0;
    stacks = Hashtbl.create 64;
    cells = Hashtbl.create 64;
  }

let track_of c engine =
  match List.find_opt (fun (e, _) -> e == engine) c.engines with
  | Some (_, id) -> id
  | None ->
      let id = c.next_track in
      c.next_track <- id + 1;
      c.engines <- (engine, id) :: c.engines;
      c.track_labels <- (id, Fmt.str "sim%d" id) :: c.track_labels;
      id

let label_track engine label =
  match !current with
  | None -> ()
  | Some c ->
      let id = track_of c engine in
      c.track_labels <-
        List.map (fun (i, l) -> if i = id then (i, label) else (i, l)) c.track_labels

(* The logical thread of the caller: the running fiber, or the synthetic
   "scheduler" thread (-1) when called from outside any fiber. *)
let fiber_key engine =
  match Engine.current_fiber engine with
  | Some f -> (Engine.Fiber.id f, Engine.Fiber.name f)
  | None -> (-1, "scheduler")

(* ------------------------------------------------------------------ *)
(* Span plumbing (used by [Span]) *)

let open_span engine ~component ~name ~attrs =
  match !current with
  | None -> None
  | Some c ->
      let track = track_of c engine in
      let fiber, fiber_name = fiber_key engine in
      let stack = Option.value ~default:[] (Hashtbl.find_opt c.stacks (track, fiber)) in
      let parent = match stack with [] -> None | o :: _ -> Some o.o_id in
      let o =
        {
          o_id = c.next_span;
          o_parent = parent;
          o_track = track;
          o_fiber = fiber;
          o_fiber_name = fiber_name;
          o_component = component;
          o_name = name;
          o_start = Engine.now engine;
          o_attrs = List.rev attrs;
        }
      in
      c.next_span <- c.next_span + 1;
      Hashtbl.replace c.stacks (track, fiber) (o :: stack);
      Trace.emit engine ~component "span %s begin" name;
      Some o

let close_span engine o =
  match !current with
  | None -> ()
  | Some c -> (
      let key = (o.o_track, o.o_fiber) in
      match Hashtbl.find_opt c.stacks key with
      | Some (top :: rest) when top == o ->
          Hashtbl.replace c.stacks key rest;
          let stop = Engine.now engine in
          let span =
            {
              id = o.o_id;
              parent = o.o_parent;
              track = o.o_track;
              fiber = o.o_fiber;
              fiber_name = o.o_fiber_name;
              component = o.o_component;
              name = o.o_name;
              start_time = o.o_start;
              duration = stop -. o.o_start;
              attrs = List.rev o.o_attrs;
            }
          in
          c.spans_rev <- span :: c.spans_rev;
          Trace.emit engine ~component:o.o_component "span %s end (%.6fs)" o.o_name
            span.duration
      | _ ->
          (* Mismatched close (span stack corrupted by a non-nested close):
             fail loudly — this is a programming error in instrumentation. *)
          invalid_arg (Fmt.str "Obs: span %s closed out of order" o.o_name))

let add_attr engine key value =
  match !current with
  | None -> ()
  | Some c -> (
      let track = track_of c engine in
      let fiber, _ = fiber_key engine in
      match Hashtbl.find_opt c.stacks (track, fiber) with
      | Some (o :: _) -> o.o_attrs <- (key, value) :: o.o_attrs
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Metric plumbing (used by [Metrics]) *)

let cell_of c ~component ~name =
  let key = (component, name) in
  match Hashtbl.find_opt c.cells key with
  | Some cell -> cell
  | None ->
      let cell =
        { c_samples = 0; c_total = 0.0; c_min = infinity; c_max = neg_infinity; c_last = 0.0 }
      in
      Hashtbl.replace c.cells key cell;
      cell

let observe ~component ~name v =
  match !current with
  | None -> ()
  | Some c ->
      let cell = cell_of c ~component ~name in
      cell.c_samples <- cell.c_samples + 1;
      cell.c_total <- cell.c_total +. v;
      cell.c_min <- Float.min cell.c_min v;
      cell.c_max <- Float.max cell.c_max v;
      cell.c_last <- v

let set ~component ~name v =
  match !current with
  | None -> ()
  | Some c ->
      let cell = cell_of c ~component ~name in
      cell.c_samples <- cell.c_samples + 1;
      cell.c_min <- Float.min cell.c_min v;
      cell.c_max <- Float.max cell.c_max v;
      cell.c_last <- v;
      cell.c_total <- v

(* ------------------------------------------------------------------ *)
(* Capture *)

let snapshot c =
  let metrics =
    List.map
      (fun (component, name, kind) ->
        match Hashtbl.find_opt c.cells (component, name) with
        | None ->
            {
              m_component = component;
              m_name = name;
              m_kind = kind;
              samples = 0;
              total = 0.0;
              vmin = 0.0;
              vmax = 0.0;
              last = 0.0;
            }
        | Some cell ->
            {
              m_component = component;
              m_name = name;
              m_kind = kind;
              samples = cell.c_samples;
              total = cell.c_total;
              vmin = (if cell.c_samples = 0 then 0.0 else cell.c_min);
              vmax = (if cell.c_samples = 0 then 0.0 else cell.c_max);
              last = cell.c_last;
            })
      !registry
    |> List.sort (fun a b ->
           match String.compare a.m_component b.m_component with
           | 0 -> String.compare a.m_name b.m_name
           | c -> c)
  in
  {
    (* Spans of fibers still blocked at capture end never closed; they are
       simply absent (their children that did close are kept). *)
    spans = List.rev c.spans_rev;
    metrics;
    tracks = List.rev c.track_labels;
  }

let capture f =
  let saved = !current in
  let c = fresh_collector () in
  current := Some c;
  Fun.protect
    ~finally:(fun () -> current := saved)
    (fun () ->
      let result = f () in
      (result, snapshot c))
