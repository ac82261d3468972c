(* Minimal JSON values for the benchmark's own output: one line per run
   out, the same lines back in when runs are merged or compared. The repo
   deliberately carries no JSON dependency, so this is the smallest reader
   and writer that round-trips what the benchmark prints. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writing *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the double carries: an integer prints as one, anything else
   with 17 significant digits so a value read back compares equal. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num x -> number x
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) l)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* Reading *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              Buffer.add_char b (Char.chr (code land 0xff));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    while
      match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_lit ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

(* ------------------------------------------------------------------ *)
(* Access *)

let field k = function Obj l -> List.assoc_opt k l | _ -> None

let get k v =
  match field k v with Some x -> x | None -> raise (Parse_error ("missing field " ^ k))

let to_float = function Num x -> x | Null -> Float.nan | _ -> raise (Parse_error "not a number")
let to_int v = int_of_float (to_float v)
let to_str = function Str s -> s | _ -> raise (Parse_error "not a string")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "not a boolean")
let to_list = function Arr l -> l | _ -> raise (Parse_error "not an array")
let to_assoc = function Obj l -> l | _ -> raise (Parse_error "not an object")
