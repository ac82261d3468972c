let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_value b (v : Record.value) =
  match v with
  | Record.Int n | Record.Bytes n -> Buffer.add_string b (string_of_int n)
  | Record.Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Record.Str s -> buf_add_json_string b s

(* Chrome trace event format: "X" complete events (ts/dur in microseconds),
   plus "M" metadata naming each pid (simulation track) and tid (fiber).
   Load the result at chrome://tracing or https://ui.perfetto.dev. *)
let chrome_trace (run : Record.run) =
  let b = Buffer.create 4096 in
  let first = ref true in
  let event add_fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_char b '{';
    add_fields ();
    Buffer.add_char b '}'
  in
  let field ?(sep = true) name add_val =
    if sep then Buffer.add_char b ',';
    buf_add_json_string b name;
    Buffer.add_char b ':';
    add_val ()
  in
  let str s () = buf_add_json_string b s in
  let int n () = Buffer.add_string b (string_of_int n) in
  let us t () = Buffer.add_string b (Printf.sprintf "%.3f" (t *. 1e6)) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iter
    (fun (track, label) ->
      event (fun () ->
          field ~sep:false "name" (str "process_name");
          field "ph" (str "M");
          field "pid" (int track);
          field "tid" (int 0);
          field "args" (fun () ->
              Buffer.add_char b '{';
              field ~sep:false "name" (str label);
              Buffer.add_char b '}')))
    run.tracks;
  (* One thread_name record per distinct (track, fiber). Fiber -1 is the
     scheduler; tids are shifted by one so it gets tid 0. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : Record.span) ->
      let key = (s.track, s.fiber) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        event (fun () ->
            field ~sep:false "name" (str "thread_name");
            field "ph" (str "M");
            field "pid" (int s.track);
            field "tid" (int (s.fiber + 1));
            field "args" (fun () ->
                Buffer.add_char b '{';
                field ~sep:false "name" (str s.fiber_name);
                Buffer.add_char b '}'))
      end)
    run.spans;
  List.iter
    (fun (s : Record.span) ->
      event (fun () ->
          field ~sep:false "name" (str s.name);
          field "cat" (str s.component);
          field "ph" (str "X");
          field "ts" (us s.start_time);
          field "dur" (us s.duration);
          field "pid" (int s.track);
          field "tid" (int (s.fiber + 1));
          field "args" (fun () ->
              Buffer.add_char b '{';
              let afirst = ref true in
              List.iter
                (fun (k, v) ->
                  field ~sep:(not !afirst) k (fun () -> buf_add_value b v);
                  afirst := false)
                s.attrs;
              Buffer.add_char b '}')))
    run.spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* A minimal JSON well-formedness checker (no external deps): parses the
   full grammar without building a value, reporting the first offending
   byte offset. Used by the exporter tests and [write_chrome_trace]. *)

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = Error (Printf.sprintf "offset %d: %s" !pos msg) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then begin incr pos; Ok () end
    else error (Printf.sprintf "expected %c" c)
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin pos := !pos + l; Ok () end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    match expect '"' with
    | Error _ as e -> e
    | Ok () ->
        let rec go () =
          if !pos >= n then error "unterminated string"
          else
            match s.[!pos] with
            | '"' -> incr pos; Ok ()
            | '\\' ->
                incr pos;
                if !pos >= n then error "unterminated escape"
                else (
                  match s.[!pos] with
                  | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr pos; go ()
                  | 'u' ->
                      if !pos + 4 < n
                         && (let hex c =
                               (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
                               || (c >= 'A' && c <= 'F')
                             in
                             hex s.[!pos + 1] && hex s.[!pos + 2] && hex s.[!pos + 3]
                             && hex s.[!pos + 4])
                      then begin pos := !pos + 5; go () end
                      else error "bad \\u escape"
                  | _ -> error "bad escape")
            | c when Char.code c < 0x20 -> error "control char in string"
            | _ -> incr pos; go ()
        in
        go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do incr pos done;
    if peek () = Some '.' then begin
      incr pos;
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do incr pos done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do incr pos done
    | _ -> ());
    if !pos > start then Ok () else error "expected number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Ok () end
        else
          let rec members () =
            skip_ws ();
            match parse_string () with
            | Error _ as e -> e
            | Ok () -> (
                skip_ws ();
                match expect ':' with
                | Error _ as e -> e
                | Ok () -> (
                    match parse_value () with
                    | Error _ as e -> e
                    | Ok () -> (
                        skip_ws ();
                        match peek () with
                        | Some ',' -> incr pos; members ()
                        | Some '}' -> incr pos; Ok ()
                        | _ -> error "expected , or }")))
          in
          members ()
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Ok () end
        else
          let rec elements () =
            match parse_value () with
            | Error _ as e -> e
            | Ok () -> (
                skip_ws ();
                match peek () with
                | Some ',' -> incr pos; elements ()
                | Some ']' -> incr pos; Ok ()
                | _ -> error "expected , or ]")
          in
          elements ()
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | Error _ as e -> e
  | Ok () ->
      skip_ws ();
      if !pos = n then Ok () else error "trailing garbage"

let write_chrome_trace run ~path =
  let json = chrome_trace run in
  (match validate_json json with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "timeline JSON invalid (%s)" msg));
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json)

(* ------------------------------------------------------------------ *)
(* Tables *)

let render_columns rows =
  match rows with
  | [] -> ""
  | header :: _ ->
      let ncols = List.length header in
      let widths = Array.make ncols 0 in
      List.iter
        (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
        rows;
      let b = Buffer.create 256 in
      List.iteri
        (fun ri row ->
          List.iteri
            (fun i cell ->
              let pad = widths.(i) - String.length cell in
              (* Left-align the first two columns, right-align the rest. *)
              if i > 1 then Buffer.add_string b (String.make pad ' ');
              Buffer.add_string b cell;
              if i <= 1 then Buffer.add_string b (String.make pad ' ');
              if i < ncols - 1 then Buffer.add_string b "  ")
            row;
          Buffer.add_char b '\n';
          if ri = 0 then begin
            Array.iteri
              (fun i w ->
                Buffer.add_string b (String.make w '-');
                if i < ncols - 1 then Buffer.add_string b "  ")
              widths;
            Buffer.add_char b '\n'
          end)
        rows;
      Buffer.contents b

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let metrics_table (run : Record.run) =
  let rows =
    [ "component"; "metric"; "kind"; "samples"; "total"; "min"; "max"; "last" ]
    :: List.map
         (fun (m : Record.metric) ->
           [
             m.m_component;
             m.m_name;
             Record.kind_name m.m_kind;
             string_of_int m.samples;
             fnum m.total;
             fnum m.vmin;
             fnum m.vmax;
             fnum m.last;
           ])
         run.metrics
  in
  render_columns rows

(* ------------------------------------------------------------------ *)
(* Critical-path phase breakdown *)

type breakdown = {
  b_track : int;
  b_label : string;
  b_root : Record.span;
  b_phases : (string * float) list;
  b_leaf_total : float;
  b_residual : float;
}

let breakdown (run : Record.run) ~root =
  let spans = Array.of_list run.spans in
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun (s : Record.span) -> Hashtbl.replace by_id s.id s) spans;
  let children = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun (s : Record.span) ->
      match s.parent with
      | Some p ->
          Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  let tracks =
    List.filter
      (fun (tr, _) ->
        Array.exists (fun (s : Record.span) -> s.track = tr && s.parent = None && s.name = root) spans)
      run.tracks
  in
  List.map
    (fun (tr, label) ->
      (* The run's completion time is the latest root to finish; its leaf
         spans are the critical path's phases. *)
      let roots =
        Array.to_list spans
        |> List.filter (fun (s : Record.span) -> s.track = tr && s.parent = None && s.name = root)
      in
      let longest =
        List.fold_left
          (fun best (s : Record.span) ->
            if s.start_time +. s.duration > best.Record.start_time +. best.Record.duration then s
            else best)
          (List.hd roots) roots
      in
      (* Collect the leaf descendants of the longest root, in start order,
         summing durations by phase name. *)
      let leaves = ref [] in
      let rec walk (s : Record.span) =
        match Hashtbl.find_opt children s.id with
        | None | Some [] -> leaves := s :: !leaves
        | Some kids -> List.iter walk kids
      in
      (match Hashtbl.find_opt children longest.id with
      | None | Some [] -> ()
      | Some kids -> List.iter walk kids);
      let leaves =
        List.sort
          (fun (a : Record.span) (b : Record.span) ->
            match Float.compare a.start_time b.start_time with
            | 0 -> Int.compare a.id b.id
            | c -> c)
          !leaves
      in
      let phases =
        List.fold_left
          (fun acc (s : Record.span) ->
            match List.assoc_opt s.name acc with
            | Some _ ->
                List.map (fun (n, v) -> if n = s.name then (n, v +. s.duration) else (n, v)) acc
            | None -> acc @ [ (s.name, s.duration) ])
          [] leaves
      in
      let leaf_total = List.fold_left (fun a (_, d) -> a +. d) 0.0 phases in
      {
        b_track = tr;
        b_label = label;
        b_root = longest;
        b_phases = phases;
        b_leaf_total = leaf_total;
        b_residual = longest.duration -. leaf_total;
      })
    tracks

let phase_table (run : Record.run) ~root =
  let bds = breakdown run ~root in
  let b = Buffer.create 256 in
  List.iter
    (fun bd ->
      Buffer.add_string b
        (Printf.sprintf "%s: critical-path %s = %.3fs (start t=%.3fs)\n" bd.b_label root
           bd.b_root.duration bd.b_root.start_time);
      let rows =
        [ "phase"; "component"; "seconds"; "share" ]
        :: List.map
             (fun (name, d) ->
               let comp =
                 match
                   List.find_opt (fun (s : Record.span) -> s.name = name) run.spans
                 with
                 | Some s -> s.component
                 | None -> ""
               in
               [
                 name;
                 comp;
                 Printf.sprintf "%.3f" d;
                 Printf.sprintf "%.1f%%" (100.0 *. d /. Float.max bd.b_root.duration 1e-9);
               ])
             bd.b_phases
        @ [
            [
              "(total)";
              "";
              Printf.sprintf "%.3f" bd.b_leaf_total;
              Printf.sprintf "%.1f%%"
                (100.0 *. bd.b_leaf_total /. Float.max bd.b_root.duration 1e-9);
            ];
          ]
      in
      Buffer.add_string b (render_columns rows);
      Buffer.add_char b '\n')
    bds;
  Buffer.contents b
