type series = { label : string; mutable points : (float * float) list (* reversed *) }

let series label = { label; points = [] }
let add s ~x ~y = s.points <- (x, y) :: s.points

let y_at s ~x =
  List.find_map (fun (px, py) -> if px = x then Some py else None) s.points

let group ?order ~key ~label ~x ~y points =
  let groups = ref [] (* (key, series), newest key first *) in
  List.iter
    (fun p ->
      let k = key p in
      let s =
        match List.assoc_opt k !groups with
        | Some s -> s
        | None ->
            let s = series (label k) in
            groups := (k, s) :: !groups;
            s
      in
      add s ~x:(x p) ~y:(y p))
    points;
  let groups = List.rev !groups in
  let groups =
    match order with
    | None -> groups
    | Some order -> List.stable_sort (fun (a, _) (b, _) -> order a b) groups
  in
  List.map snd groups

type table = {
  title : string;
  x_label : string;
  y_label : string;
  columns : series list;
}

let table ~title ~x_label ~y_label columns = { title; x_label; y_label; columns }

let xs_of t =
  let xs =
    List.concat_map (fun s -> List.map fst s.points) t.columns
    |> List.sort_uniq Float.compare
  in
  xs

let format_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.0f" v else Fmt.str "%.2f" v

let render t =
  let xs = xs_of t in
  let header = t.x_label :: List.map (fun s -> s.label) t.columns in
  let rows =
    List.map
      (fun x ->
        format_cell x
        :: List.map
             (fun s -> match y_at s ~x with Some y -> format_cell y | None -> "-")
             t.columns)
      xs
  in
  let all_rows = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all_rows
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Fmt.str "== %s (%s) ==\n" t.title t.y_label);
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (Fmt.str "%*s" (List.nth widths i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  emit_row (List.map (fun w -> String.make w '-') widths);
  List.iter emit_row rows;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let xs = xs_of t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat ","
       (List.map csv_escape (t.x_label :: List.map (fun s -> s.label) t.columns)));
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (Fmt.str "%g" x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match y_at s ~x with
          | Some y -> Buffer.add_string buf (Fmt.str "%g" y)
          | None -> ())
        t.columns;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

let write_csv ~dir ~name t =
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t));
  path

let mean = function
  | [] -> 0.0
  | vs -> List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
