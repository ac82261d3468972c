(* Documentation lint. Same philosophy as Lint: a few text-level passes
   with no external parser, precise enough for this codebase's idioms. *)

type finding = Lint.finding = { rule : string; file : string; line : int; message : string }

let mk rule file line fmt = Fmt.kstr (fun message -> { rule; file; line; message }) fmt

(* ------------------------------------------------------------------ *)
(* mli-doc *)

let undocumented ~file content =
  List.filter_map
    (fun (v : Lint.interface_val) ->
      if v.doc = None && not v.hidden then
        Some
          (mk "mli-doc" file v.decl_line "val %s has no doc comment"
             (String.concat "." (Option.to_list v.parent @ [ v.name ])))
      else None)
    (Lint.interface_vals content)

(* ------------------------------------------------------------------ *)
(* md-link *)

let fold_md_lines content f acc =
  (* Visit (line_number, text) for every line outside ``` fences. *)
  let _, _, acc =
    List.fold_left
      (fun (lineno, fenced, acc) text ->
        let fence = String.length (String.trim text) >= 3 && String.sub (String.trim text) 0 3 = "```" in
        if fence then (lineno + 1, not fenced, acc)
        else if fenced then (lineno + 1, fenced, acc)
        else (lineno + 1, fenced, f acc lineno text))
      (1, false, acc)
      (String.split_on_char '\n' content)
  in
  acc

let slug title =
  let buf = Buffer.create (String.length title) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9' | '-' | '_') as c -> Buffer.add_char buf c
      | ' ' -> Buffer.add_char buf '-'
      | _ -> ())
    (String.trim title);
  Buffer.contents buf

let heading_anchors content =
  List.rev
    (fold_md_lines content
       (fun acc _ text ->
         if String.length text > 0 && text.[0] = '#' then begin
           let j = ref 0 in
           while !j < String.length text && text.[!j] = '#' do incr j done;
           slug (String.sub text !j (String.length text - !j)) :: acc
         end
         else acc)
       [])

let link_targets content =
  let links_in acc lineno text =
    let n = String.length text in
    let acc = ref acc in
    let i = ref 0 in
    while !i + 1 < n do
      if text.[!i] = ']' && text.[!i + 1] = '(' then begin
        match String.index_from_opt text (!i + 2) ')' with
        | Some close ->
            acc := (lineno, String.sub text (!i + 2) (close - !i - 2)) :: !acc;
            i := close + 1
        | None -> i := n
      end
      else incr i
    done;
    !acc
  in
  List.rev (fold_md_lines content links_in [])

let external_link target =
  List.exists
    (fun prefix ->
      String.length target >= String.length prefix
      && String.sub target 0 (String.length prefix) = prefix)
    [ "http://"; "https://"; "mailto:" ]

(* ------------------------------------------------------------------ *)
(* changes-log *)

let check_changes ~file content =
  let pr_number text =
    if String.starts_with ~prefix:"PR " text then
      match String.split_on_char ' ' text with
      | "PR" :: n :: _ -> int_of_string_opt n
      | _ -> None
    else None
  in
  (* A [FOUND:] line names a fault seen and left open; [MENDED:] is the
     same line once a later PR fixes it. Neither is a PR entry. *)
  let note text =
    String.starts_with ~prefix:"FOUND: " text || String.starts_with ~prefix:"MENDED: " text
  in
  let _, findings =
    fold_md_lines content
      (fun (expected, acc) lineno text ->
        if String.trim text = "" || note text then (expected, acc)
        else
          match pr_number text with
          | Some n when n = expected -> (expected + 1, acc)
          | Some n ->
              ( n + 1,
                mk "changes-log" file lineno "entry is PR %d, expected PR %d (one line per PR, in order)"
                  n expected
                :: acc )
          | None ->
              ( expected,
                mk "changes-log" file lineno
                  "line does not start with \"PR <n> \", \"FOUND: \" or \"MENDED: \""
                :: acc ))
      (1, [])
  in
  List.rev findings

(* ------------------------------------------------------------------ *)
(* repository scan *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mli_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry = "" || entry.[0] = '.' || entry.[0] = '_' then []
         else if Sys.is_directory path then mli_files path
         else if Filename.check_suffix entry ".mli" then [ path ]
         else [])

let check_markdown ~root ~file content =
  let dir = Filename.dirname file in
  List.filter_map
    (fun (line, target) ->
      if external_link target || target = "" then None
      else
        let path, frag =
          match String.index_opt target '#' with
          | Some j ->
              ( String.sub target 0 j,
                Some (String.sub target (j + 1) (String.length target - j - 1)) )
          | None -> (target, None)
        in
        let resolved = if path = "" then file else Filename.concat dir path in
        if path <> "" && not (Sys.file_exists (Filename.concat root resolved)) then
          Some (mk "md-link" file line "broken link: %s does not exist" path)
        else
          match frag with
          | Some anchor when Filename.check_suffix resolved ".md" ->
              let anchors = heading_anchors (read_file (Filename.concat root resolved)) in
              if List.mem anchor anchors then None
              else Some (mk "md-link" file line "no heading for anchor #%s in %s" anchor resolved)
          | _ -> None)
    (link_targets content)

let markdown_scope root =
  let fixed = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ] in
  let docs_dir = Filename.concat root "docs" in
  let docs =
    if Sys.file_exists docs_dir && Sys.is_directory docs_dir then
      Sys.readdir docs_dir |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".md" then Some (Filename.concat "docs" f) else None)
    else []
  in
  List.filter (fun f -> Sys.file_exists (Filename.concat root f)) (fixed @ docs)

let scan_repo ~root =
  let lib = Filename.concat root "lib" in
  let mli_findings =
    if Sys.file_exists lib then
      List.concat_map
        (fun path ->
          let prefix = Filename.concat root "" in
          let rel =
            if String.length path > String.length prefix
               && String.sub path 0 (String.length prefix) = prefix
            then String.sub path (String.length prefix) (String.length path - String.length prefix)
            else path
          in
          undocumented ~file:rel (read_file path))
        (mli_files lib)
    else []
  in
  let md_findings =
    List.concat_map
      (fun file -> check_markdown ~root ~file (read_file (Filename.concat root file)))
      (markdown_scope root)
  in
  let changes =
    let path = Filename.concat root "CHANGES.md" in
    if Sys.file_exists path then check_changes ~file:"CHANGES.md" (read_file path) else []
  in
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> ( match Int.compare a.line b.line with 0 -> String.compare a.rule b.rule | c -> c)
      | c -> c)
    (mli_findings @ md_findings @ changes)
