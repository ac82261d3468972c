type finding = { rule : string; file : string; line : int; message : string }

(* The rule ids a pragma may name; lint.mli describes each rule. *)
let rule_ids =
  [ "hashtbl-order"; "ambient-random"; "wall-clock"; "obj-magic"; "poly-compare"; "missing-mli";
    "domains"; "catch-all"; "unused-export"; "unused-option" ]

(* ------------------------------------------------------------------ *)
(* Comment- and string-aware line stripping.

   [split_lines source] returns, per line, the code text with comments and
   string-literal contents blanked out (replaced by spaces, so columns are
   preserved) and the comment text with everything else blanked. Handles
   nested (* *) comments, "..." strings with escapes, {x|...|x} quoted
   strings and character literals (including '\'' and '"'); apostrophes in
   identifiers such as [left'] are not treated as literals. *)

type lex_state =
  | Code
  | Comment of int (* nesting depth *)
  | String
  | Quoted of string (* the {x| delimiter's id, matched by |x} *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

let split_lines source =
  let lines = String.split_on_char '\n' source in
  let state = ref Code in
  List.map
    (fun line ->
      let n = String.length line in
      let code = Bytes.make n ' ' in
      let comment = Bytes.make n ' ' in
      let i = ref 0 in
      while !i < n do
        let c = line.[!i] in
        (match !state with
        | Code ->
            if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
              state := Comment 1;
              incr i
            end
            else if c = '"' then state := String
            else if c = '{' then begin
              (* {|...|} or {id|...|id} quoted string *)
              let j = ref (!i + 1) in
              while !j < n && line.[!j] >= 'a' && line.[!j] <= 'z' do
                incr j
              done;
              if !j < n && line.[!j] = '|' then begin
                state := Quoted (String.sub line (!i + 1) (!j - !i - 1));
                i := !j
              end
              else Bytes.set code !i c
            end
            else if
              c = '\''
              && (!i = 0 || not (is_ident_char line.[!i - 1]))
              && !i + 1 < n
            then begin
              (* Character literal: skip '\x..' or 'c' wholesale. *)
              Bytes.set code !i c;
              let close =
                if line.[!i + 1] = '\\' then
                  (* escape: find the closing quote after it *)
                  let j = ref (!i + 2) in
                  while !j < n && line.[!j] <> '\'' do
                    incr j
                  done;
                  if !j < n then Some !j else None
                else if !i + 2 < n && line.[!i + 2] = '\'' then Some (!i + 2)
                else None
              in
              match close with
              | Some j -> i := j
              | None -> () (* lone quote: type variable or stray *)
            end
            else Bytes.set code !i c
        | Comment depth ->
            Bytes.set comment !i c;
            if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
              state := Comment (depth + 1);
              Bytes.set comment (!i + 1) '*';
              incr i
            end
            else if c = '*' && !i + 1 < n && line.[!i + 1] = ')' then begin
              state := (if depth = 1 then Code else Comment (depth - 1));
              incr i
            end
        | String ->
            if c = '\\' then incr i (* skip the escaped character *)
            else if c = '"' then state := Code
        | Quoted id ->
            let close = "|" ^ id ^ "}" in
            let cl = String.length close in
            if c = '|' && !i + cl <= n && String.sub line !i cl = close then begin
              state := Code;
              i := !i + cl - 1
            end);
        incr i
      done;
      (* A string or quoted literal never spans lines in this codebase, but
         if one does, the blanking state simply carries over. *)
      (Bytes.to_string code, Bytes.to_string comment))
    lines

(* ------------------------------------------------------------------ *)
(* Token search *)

(* All start positions where [needle] occurs in [code] as a full token:
   the character before is not part of an identifier (and, unless
   [allow_dot_before], not '.'), and the character after is not part of an
   identifier. *)
let token_positions ?(allow_dot_before = false) code needle =
  let nl = String.length needle and cl = String.length code in
  let open_ended = nl > 0 && needle.[nl - 1] = '.' in
  let ok_before i =
    i = 0
    ||
    let c = code.[i - 1] in
    (not (is_ident_char c)) && (allow_dot_before || c <> '.')
  in
  let ok_after i =
    let j = i + nl in
    open_ended || j >= cl || not (is_ident_char code.[j])
  in
  let rec go from acc =
    if from + nl > cl then List.rev acc
    else
      match String.index_from_opt code from needle.[0] with
      | None -> List.rev acc
      | Some i when i + nl <= cl && String.sub code i nl = needle ->
          let acc = if ok_before i && ok_after i then i :: acc else acc in
          go (i + 1) acc
      | Some i -> go (i + 1) acc
  in
  go 0 []

let has_token ?allow_dot_before code needle =
  token_positions ?allow_dot_before code needle <> []

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pragmas *)

let pragma_prefix = "lint: allow"

(* The words after "lint: allow" in this comment text, split on spaces and
   commas: rule ids, then the justification. *)
let pragma_words comment =
  let pl = String.length pragma_prefix in
  let rec find i =
    if i + pl > String.length comment then None
    else if String.sub comment i pl = pragma_prefix then Some (i + pl)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start ->
      let rest = String.sub comment start (String.length comment - start) in
      String.split_on_char ' ' rest |> List.concat_map (String.split_on_char ',')

(* Rule ids allowed by pragmas in this comment text. With [~reason], only
   when the pragma also gives a justification: a word that is not a rule
   id. *)
let allowances ?(reason = false) comment =
  let words = pragma_words comment in
  let rules, rest = List.partition (fun w -> List.mem w rule_ids) words in
  let justified =
    List.exists (String.exists (fun c -> Char.lowercase_ascii c <> Char.uppercase_ascii c)) rest
  in
  if reason && not justified then [] else rules

(* A pragma suppresses the offending line itself or, when written as a
   standalone comment, the line directly below it. *)
let allowed ?reason ~code_lines ~comment_lines rule line =
  List.mem rule (allowances ?reason comment_lines.(line))
  || (line > 0
     && String.trim code_lines.(line - 1) = ""
     && List.mem rule (allowances ?reason comment_lines.(line - 1)))

(* ------------------------------------------------------------------ *)
(* Per-file scan *)

(* Per rule, the tokens flagged wherever they occur in code; most are
   module-qualified paths. *)
let token_rules =
  [
    ( "hashtbl-order",
      [
        "Hashtbl.iter";
        "Hashtbl.fold";
        "Hashtbl.to_seq";
        "Hashtbl.to_seq_keys";
        "Hashtbl.to_seq_values";
      ] );
    ("ambient-random", [ "Random." ]);
    ("wall-clock", [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]);
    ("obj-magic", [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]);
    ( "domains",
      List.map (fun m -> m ^ ".") [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Thread" ] );
    ("catch-all", [ "exception _ ->"; "with _ ->" ]);
  ]

(* The hashtbl-order rule forgives an iteration whose result is explicitly
   ordered nearby: any "sort" within this many lines below the call. *)
let sort_window = 2

let ends_with_definition code pos =
  (* [compare] right after [let]/[and]/[rec] is a monomorphic definition,
     and [~compare] is a labelled argument — neither is a use of the
     polymorphic comparator. *)
  if pos > 0 && code.[pos - 1] = '~' then true
  else
    let before = String.trim (String.sub code 0 pos) in
    let word s w =
      let wl = String.length w and l = String.length s in
      l >= wl
      && String.sub s (l - wl) wl = w
      && (l = wl || not (is_ident_char s.[l - wl - 1]))
    in
    word before "let" || word before "and" || word before "rec"

let scan_source ~file source =
  let lines = split_lines source in
  let code_lines = Array.of_list (List.map fst lines) in
  let comment_lines = Array.of_list (List.map snd lines) in
  let nlines = Array.length code_lines in
  (* A float literal: a maximal digit run not preceded by an identifier
     character (so [Int64.] and [v1.field] don't count), followed by '.'. *)
  let has_float_literal code =
    let n = String.length code in
    let is_digit c = c >= '0' && c <= '9' in
    let rec go i =
      if i >= n then false
      else if is_digit code.[i] && (i = 0 || not (is_ident_char code.[i - 1])) then begin
        let j = ref i in
        while !j < n && is_digit code.[!j] do
          incr j
        done;
        (!j < n && code.[!j] = '.') || go !j
      end
      else go (i + 1)
    in
    go 0
  in
  let float_bearing =
    Array.exists
      (fun code -> has_token code "float" || has_float_literal code)
      code_lines
  in
  let findings = ref [] in
  let emit rule line message =
    if not (allowed ~code_lines ~comment_lines rule line) then
      findings := { rule; file; line = line + 1; message } :: !findings
  in
  for i = 0 to nlines - 1 do
    let code = code_lines.(i) in
    List.iter
      (fun (rule, needles) ->
        List.iter
          (fun needle ->
            if has_token ~allow_dot_before:true code needle then
              match rule with
              | "hashtbl-order" ->
                  let sorted = ref false in
                  for j = i to min (nlines - 1) (i + sort_window) do
                    if contains_substring code_lines.(j) "sort" then sorted := true
                  done;
                  if not !sorted then
                    emit rule i
                      (Fmt.str "%s result not explicitly sorted within %d lines" needle
                         sort_window)
              | _ -> emit rule i (Fmt.str "use of %s" needle))
          needles)
      token_rules;
    if float_bearing then
      List.iter
        (fun pos ->
          if not (ends_with_definition code pos) then
            emit "poly-compare" i
              "bare polymorphic compare in a module handling floats (use Float.compare \
               or a typed comparator)")
        (token_positions code "compare")
  done;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Tree scan *)

let missing_mli files =
  List.filter_map
    (fun path ->
      if (not (Filename.check_suffix path ".ml")) || List.mem (path ^ "i") files then None
      else
        let f = Filename.basename path in
        Some
          {
            rule = "missing-mli";
            file = path;
            line = 1;
            message =
              Fmt.str "%s has no companion %s.mli interface" f (Filename.remove_extension f);
          })
    files

let rec walk dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun entry ->
             if String.length entry = 0 || entry.[0] = '.' || entry.[0] = '_' then []
             else
               let path = Filename.concat dir entry in
               if Sys.is_directory path then walk path
               else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
               then [ path ]
               else [])
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Interface shape *)

(* One pass over an interface's source classifying every character as
   code, string or comment, recording:
   - doc comment extents (start_line, end_line) — depth-0 doc openers
     that are not the stop comment "(**/**)";
   - stop-comment lines ("(**/**)" toggles an odoc-hidden section);
   - for each line, whether its column 0 is in code context (so an item
     keyword there really starts an item). *)
type mli_shape = {
  docs : (int * int) list;
  stops : int list;
  code_start : bool array; (* index = line - 1 *)
}

let shape_of_mli content =
  let n = String.length content in
  let total_lines =
    1 + String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 content
  in
  let code_start = Array.make total_lines false in
  code_start.(0) <- true;
  let docs = ref [] and stops = ref [] in
  let line = ref 1 and depth = ref 0 and doc_start = ref 0 in
  let i = ref 0 in
  let skip_string () =
    (* [!i] is at the opening quote; leaves [!i] past the closing one.
       Newlines inside literals keep the line count honest. *)
    incr i;
    let fin = ref false in
    while (not !fin) && !i < n do
      (match content.[!i] with
      | '\\' -> incr i
      | '"' -> fin := true
      | '\n' -> incr line
      | _ -> ());
      incr i
    done
  in
  while !i < n do
    let c = content.[!i] in
    let next = if !i + 1 < n then content.[!i + 1] else '\x00' in
    if c = '\n' then begin
      incr line;
      if !depth = 0 then code_start.(!line - 1) <- true;
      incr i
    end
    else if c = '(' && next = '*' then begin
      if !depth = 0 then begin
        if !i + 6 < n && String.sub content !i 7 = "(**/**)" then
          stops := !line :: !stops
        else if !i + 2 < n && content.[!i + 2] = '*' then doc_start := !line
      end;
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && next = ')' then begin
      decr depth;
      if !depth = 0 && !doc_start > 0 then begin
        docs := (!doc_start, !line) :: !docs;
        doc_start := 0
      end;
      i := !i + 2
    end
    else if c = '"' then skip_string ()
    else incr i
  done;
  { docs = List.rev !docs; stops = List.rev !stops; code_start }

let item_keywords =
  [ "val"; "type"; "module"; "exception"; "open"; "include"; "external"; "class"; "end" ]

let starts_with_keyword line kw =
  let kl = String.length kw in
  String.length line >= kl
  && String.sub line 0 kl = kw
  && (String.length line = kl || not (is_ident_char line.[kl]))

type interface_val = {
  name : string;
  parent : string option;
  decl_line : int;
  doc : string option;
  hidden : bool;
}

let indentation line =
  let n = String.length line in
  let rec go i = if i < n && line.[i] = ' ' then go (i + 1) else i in
  go 0

(* The [X] of a [module X : sig] line. *)
let sig_opener text =
  match String.split_on_char ' ' text with
  | [ "module"; x; ":"; "sig" ] -> Some x
  | _ -> None

let interface_vals content =
  let shape = shape_of_mli content in
  let lines = Array.of_list (String.split_on_char '\n' content) in
  (* Items are item keywords in code context at their signature's item
     indentation: column 0 at top level, else that of the first code line
     inside the [module X : sig]. Each maps to the [X] it sits in. The
     stack holds each open nested signature's name, the indentation of its
     opener and, once seen, that of its items. *)
  let parents = Hashtbl.create 64 in
  let stack = ref [] in
  Array.iteri
    (fun idx line ->
      let text = String.trim line and indent = indentation line in
      if shape.code_start.(idx) && text <> "" then begin
        (match !stack with
        | (x, opener, None) :: rest when indent > opener ->
            stack := (x, opener, Some indent) :: rest
        | _ -> ());
        match !stack with
        | (_, opener, _) :: rest when indent = opener && starts_with_keyword text "end" ->
            stack := rest;
            Hashtbl.replace parents (idx + 1) None
        | _ ->
            let parent, expected =
              match !stack with
              | (x, _, items_at) :: _ -> (Some x, Option.value items_at ~default:(-1))
              | [] -> (None, 0)
            in
            if indent = expected && List.exists (starts_with_keyword text) item_keywords then begin
              Hashtbl.replace parents (idx + 1) parent;
              Option.iter (fun x -> stack := (x, indent, None) :: !stack) (sig_opener text)
            end
      end)
    lines;
  let item_at l = Hashtbl.mem parents l in
  let items = List.sort compare (List.of_seq (Hashtbl.to_seq_keys parents)) in
  (* Assign each doc comment to exactly one item: the item directly below
     its last line (leading style) unless that closes a signature, else the
     closest item above its first line (trailing style). *)
  let docs = Hashtbl.create 16 in
  let attach l text =
    Hashtbl.replace docs l
      (match Hashtbl.find_opt docs l with Some d -> d ^ "\n" ^ text | None -> text)
  in
  List.iter
    (fun (s, e) ->
      let text = String.concat "\n" (Array.to_list (Array.sub lines (s - 1) (e - s + 1))) in
      if item_at (e + 1) && not (starts_with_keyword (String.trim lines.(e)) "end") then
        attach (e + 1) text
      else
        match List.filter (fun l -> l <= s) items with
        | [] -> ()
        | above -> attach (List.fold_left max 0 above) text)
    shape.docs;
  let hidden l = List.length (List.filter (fun stop -> stop < l) shape.stops) mod 2 = 1 in
  List.filter_map
    (fun l ->
      let text = String.trim lines.(l - 1) in
      if starts_with_keyword text "val" then
        (* "val name : ..." or "val ( + ) : ..." — everything before the ':'. *)
        let rest = String.sub text 3 (String.length text - 3) in
        let name =
          String.trim
            (match String.index_opt rest ':' with Some j -> String.sub rest 0 j | None -> rest)
        in
        Some
          {
            name;
            parent = Hashtbl.find parents l;
            decl_line = l;
            doc = Hashtbl.find_opt docs l;
            hidden = hidden l;
          }
      else None)
    items

(* ------------------------------------------------------------------ *)
(* unused-export and unused-option *)

(* [Test-only:] tags a val; [Test-only [?name]:] tags one of its options. *)
let val_tag = "Test-only:"

(* What one implementation file can reach: every [M.x] step of a dotted
   path, every bare identifier, and every module it opens ([open M],
   [let open M in], [M.( ... )]). *)
type refs = {
  qualified : (string * string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
}

let refs_of_code code =
  let r = { qualified = Hashtbl.create 64; bare = Hashtbl.create 256; opened = Hashtbl.create 8 } in
  let n = String.length code in
  let last_component path =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '.' path)) with
    | m :: _ -> m
    | [] -> ""
  in
  let prev = ref "" and i = ref 0 in
  while !i < n do
    if is_ident_char code.[!i] then begin
      let j = ref !i in
      while !j < n && (is_ident_char code.[!j] || code.[!j] = '.') do
        incr j
      done;
      let run = String.sub code !i (!j - !i) in
      (match String.split_on_char '.' run with
      | first :: rest when first <> "" && not (first.[0] >= '0' && first.[0] <= '9') ->
          if Char.lowercase_ascii first.[0] = first.[0] then Hashtbl.replace r.bare first ();
          ignore
            (List.fold_left
               (fun m x ->
                 if m <> "" && x <> "" then Hashtbl.replace r.qualified (m, x) ();
                 x)
               first rest);
          if !prev = "open" then Hashtbl.replace r.opened (last_component run) ();
          if run.[String.length run - 1] = '.' && !j < n && code.[!j] = '(' then
            Hashtbl.replace r.opened (last_component run) ()
      | _ -> ());
      prev := run;
      i := !j
    end
    else incr i
  done;
  r

(* An implementation file under [lib], [bin], [bench], [examples] or
   [test], with its code (comments and strings blanked) as one string. *)
type user = { path : string; is_test : bool; code : string; refs : refs }

let has_tag tag = function Some doc -> contains_substring doc tag | None -> false
let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* The start of the dotted path that ends at the name at [pos]. *)
let rec path_start code pos =
  if pos > 0 && (is_ident_char code.[pos - 1] || code.[pos - 1] = '.') then
    path_start code (pos - 1)
  else pos

(* The end of the code before [i], skipping white space. *)
let rec space_back code i = if i > 0 && is_space code.[i - 1] then space_back code (i - 1) else i

(* Keywords that end an application. *)
let stop_words =
  [ "in"; "let"; "and"; "then"; "else"; "with"; "do"; "done"; "to"; "downto"; "of"; "when";
    "match"; "if"; "fun"; "function"; "try"; "begin"; "end"; "lazy"; "assert"; "or"; "mod" ]

(* The labels applied at bracket depth 0 after [pos], a function's name, up
   to an unmatched closing bracket, a separator, an infix operator or a
   keyword, each with its sigil ([~name] or [?name]). [None] for a name
   that is itself an argument, a function handed on as a value (the code
   before it ends an expression). *)
let applied_labels code pos =
  let n = String.length code in
  let word_end i =
    let j = ref i in
    while !j < n && (is_ident_char code.[!j] || code.[!j] = '.') do
      incr j
    done;
    !j
  in
  let rec go i depth acc =
    if i >= n then acc
    else
      match code.[i] with
      | '(' | '[' | '{' -> go (i + 1) (depth + 1) acc
      | ')' | ']' | '}' -> if depth = 0 then acc else go (i + 1) (depth - 1) acc
      | c when depth = 0 && String.contains ";,=<>@^|&+-*/$%" c -> acc
      | ('~' | '?') when depth = 0 && i + 1 < n && is_ident_char code.[i + 1] ->
          let j = word_end (i + 1) in
          go j depth (String.sub code i (j - i) :: acc)
      | c when is_ident_char c ->
          let j = word_end i in
          if depth = 0 && List.mem (String.sub code i (j - i)) stop_words then acc
          else go j depth acc
      | _ -> go (i + 1) depth acc
  in
  let start = path_start code pos in
  let b = space_back code start in
  let before = String.sub code (path_start code b) (b - path_start code b) in
  if b > 0 && (String.contains ")]}" code.[b - 1] || (before <> "" && not (List.mem before stop_words)))
  then None
  else Some (go (word_end start) 0 [])

(* Whether the field named at [pos] is set there: [f =], [M.f =] or a
   punned [f] right after [{], [;] or [with]. *)
let sets_field code pos f =
  let n = String.length code in
  let rec ahead i = if i < n && is_space code.[i] then ahead (i + 1) else i in
  let a = ahead (pos + String.length f) in
  let b = space_back code (path_start code pos) in
  a + 1 < n
  && (code.[a] = ';' || code.[a] = '}' || (code.[a] = '=' && code.[a + 1] <> '='))
  && b > 0
  && (code.[b - 1] = '{' || code.[b - 1] = ';'
     || (b >= 4 && String.sub code (b - 4) 4 = "with" && path_start code b = b - 4))

(* The unused-export and unused-option findings of one library interface.
   A val nested in [module X : sig] is judged with [X] as its unit name.
   Uses in its own implementation do not count; call sites there do. *)
let interface_findings users mli =
  let source = read_file mli in
  let lines = split_lines source in
  let code_lines = Array.of_list (List.map fst lines) in
  let comment_lines = Array.of_list (List.map snd lines) in
  let own = Filename.remove_extension mli ^ ".ml" in
  let file_unit = String.capitalize_ascii (Filename.basename (Filename.remove_extension mli)) in
  (* A finding, unless a pragma that gives a reason allows it. *)
  let report rule line =
    Fmt.kstr (fun message ->
        if allowed ~reason:true ~code_lines ~comment_lines rule (line - 1) then None
        else Some { rule; file = mli; line; message })
  in
  (* Whether [u] may name the val: [Unit.name], or [name] with [Unit] open. *)
  let mentions unit_name v u =
    Hashtbl.mem u.refs.qualified (unit_name, v.name)
    || (Hashtbl.mem u.refs.opened unit_name && Hashtbl.mem u.refs.bare v.name)
  in
  let export v unit_name path =
    let found = List.filter (fun u -> u.path <> own && mentions unit_name v u) users in
    match (List.find_opt (fun u -> not u.is_test) found, has_tag val_tag v.doc) with
    | _ when not (is_ident_char v.name.[0]) -> None (* an operator *)
    | None, _ when found = [] ->
        report "unused-export" v.decl_line "val %s has no user outside its own module" path
    | None, false ->
        report "unused-export" v.decl_line
          "val %s is used only by tests; tag its doc comment Test-only" path
    | Some u, true ->
        report "unused-export" v.decl_line "val %s is tagged Test-only but %s uses it" path u.path
    | _ -> None
  in
  (* The [?name:] options of the val's signature, its [val] line and the
     lines below it indented deeper, with their lines. *)
  let rec val_options v indent l acc =
    if l > Array.length code_lines then List.rev acc
    else
      let code = code_lines.(l - 1) in
      if l > v.decl_line && String.trim code <> "" && indentation code <= indent then List.rev acc
      else
        val_options v indent (l + 1)
          (List.fold_left
             (fun acc s ->
               match String.index_opt s ':' with
               | Some j when j > 0 && String.for_all is_ident_char (String.sub s 0 j) ->
                   (String.sub s 0 j, l) :: acc
               | _ -> acc)
             acc
             (List.tl (String.split_on_char '?' code)))
  in
  (* Every call site of the val: [Unit.name] anywhere, a bare [name] in a
     file that opens the unit or, for a top-level val, in its own
     implementation (but not its definition), each with whether it is in a
     test and the labels it applies ([None]: handed on as a value). *)
  let sites v unit_name =
    List.concat_map
      (fun u ->
        let at ~allow_dot_before needle =
          List.filter_map
            (fun p ->
              if u.path = own && ends_with_definition u.code p then None
              else Some (u.is_test, applied_labels u.code p))
            (token_positions ~allow_dot_before u.code needle)
        in
        let bare =
          if u.path = own then v.parent = None
          else Hashtbl.mem u.refs.opened unit_name
        in
        at ~allow_dot_before:true (unit_name ^ "." ^ v.name)
        @ if bare then at ~allow_dot_before:(u.path <> own) v.name else [])
      (List.filter (fun u -> u.path = own || mentions unit_name v u) users)
  in
  let options v unit_name path =
    let opts = val_options v (indentation code_lines.(v.decl_line - 1)) v.decl_line [] in
    let sites = if opts = [] then [] else sites v unit_name in
    List.filter_map
      (fun (name, line) ->
        (* A hand-off as a value passes every option, but never as [~name]. *)
        let passes ~forward (_, labels) =
          match labels with
          | None -> forward
          | Some ls -> List.mem ("~" ^ name) ls || (forward && List.mem ("?" ^ name) ls)
        in
        let passers = List.filter (passes ~forward:true) sites in
        let tag = Fmt.str "Test-only [?%s]:" name in
        if passers = [] then report "unused-option" line "val %s: no call site passes ?%s" path name
        else if List.for_all fst passers && not (has_tag val_tag v.doc || has_tag tag v.doc) then
          report "unused-option" line "val %s: only tests pass ?%s; state why in a %s tag" path
            name tag
        else if List.for_all (passes ~forward:false) sites then
          report "unused-option" line "val %s: every call site passes ~%s; its default never runs"
            path name
        else None)
      opts
  in
  (* The fields of [type config = {] and [type params = {] records, one per
     line, that only tests set. *)
  let record = ref None in
  let field i code =
    match (!record, String.trim code) with
    | None, (("type config = {" | "type params = {") as decl) ->
        record := Some (String.sub decl 5 6);
        None
    | Some _, "}" ->
        record := None;
        None
    | Some ty, code -> (
        match String.index_opt code ':' with
        | Some j when j > 0 && String.for_all is_ident_char (String.trim (String.sub code 0 j)) ->
            let f = String.trim (String.sub code 0 j) in
            let setters =
              List.filter
                (fun u ->
                  u.path <> own
                  && (Hashtbl.mem u.refs.bare f || Hashtbl.mem u.refs.qualified (file_unit, f))
                  && List.exists
                       (fun p -> sets_field u.code p f)
                       (token_positions ~allow_dot_before:true u.code f))
                users
            in
            if setters <> [] && List.for_all (fun u -> u.is_test) setters then
              report "unused-option" (i + 1) "field %s.%s.%s is set only by tests" file_unit ty f
            else None
        | _ -> None)
    | None, _ -> None
  in
  List.concat_map
    (fun v ->
      let unit_name = Option.value v.parent ~default:file_unit in
      let path = String.concat "." (file_unit :: Option.to_list v.parent @ [ v.name ]) in
      Option.to_list (export v unit_name path) @ options v unit_name path)
    (interface_vals source)
  @ List.concat (List.mapi (fun i code -> Option.to_list (field i code)) (Array.to_list code_lines))

let scan_tree ~root dirs =
  let findings = ref [] in
  List.iter
    (fun dir ->
      let full = Filename.concat root dir in
      let files = walk full in
      let in_lib = String.length dir >= 3 && String.sub dir 0 3 = "lib" in
      List.iter
        (fun path ->
          if Filename.check_suffix path ".ml" then
            findings := scan_source ~file:path (read_file path) @ !findings)
        files;
      if in_lib then findings := missing_mli files @ !findings)
    dirs;
  if List.mem "lib" dirs then begin
    let under dir = walk (Filename.concat root dir) in
    let users =
      List.concat_map
        (fun dir ->
          List.filter_map
            (fun path ->
              if not (Filename.check_suffix path ".ml") then None
              else
                let code = String.concat "\n" (List.map fst (split_lines (read_file path))) in
                Some { path; is_test = dir = "test"; code; refs = refs_of_code code })
            (under dir))
        [ "lib"; "bin"; "bench"; "examples"; "test" ]
    in
    List.iter
      (fun mli -> findings := interface_findings users mli @ !findings)
      (List.filter (fun p -> Filename.check_suffix p ".mli") (under "lib"))
  end;
  List.sort (fun a b -> compare (a.file, a.line, a.rule) (b.file, b.line, b.rule)) !findings

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message
