type sink = time:float -> component:string -> string -> unit

let current_sink : sink option ref = ref None
let enabled () = !current_sink <> None

let emit engine ~component fmt =
  match !current_sink with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some sink ->
      Format.kasprintf (fun msg -> sink ~time:(Engine.now engine) ~component msg) fmt

let capture f =
  let saved = !current_sink in
  let lines = ref [] in
  let sink ~time ~component msg =
    lines := Fmt.str "t=%.6fs [%s] %s" time component msg :: !lines
  in
  current_sink := Some sink;
  Fun.protect
    ~finally:(fun () -> current_sink := saved)
    (fun () ->
      let result = f () in
      (result, List.rev !lines))
