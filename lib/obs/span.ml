let with_ engine ~component ~name ?(attrs = []) f =
  match Record.open_span engine ~component ~name ~attrs with
  | None -> f ()
  | Some o ->
      Fun.protect ~finally:(fun () -> Record.close_span engine o) f

let add_attr engine key value = Record.add_attr engine key value
