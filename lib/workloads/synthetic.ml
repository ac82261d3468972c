open Simcore
open Blobcr
open Vmsim

let app_dir = "/ckpt/app"

(* Filling memory with random data is memory-bandwidth bound: ~2 GiB/s. *)
let fill_rate = 2.0 *. float_of_int Size.gib

type t = {
  inst : Approach.instance;
  proc : Process.t;
  buffer_bytes : int;
  mutable content : Payload.t;
  mutable epoch : int;
}

let buffer_seed inst epoch = Int64.of_int (Hashtbl.hash (inst.Approach.id, epoch))

let fill t =
  let engine = Vm.engine t.inst.Approach.vm in
  Engine.sleep engine (float_of_int t.buffer_bytes /. fill_rate);
  t.content <- Payload.pattern ~seed:(buffer_seed t.inst t.epoch) t.buffer_bytes

let start inst ~buffer_bytes =
  let proc = Vm.register_process inst.Approach.vm ~name:"bench" ~mem:buffer_bytes in
  let t = { inst; proc; buffer_bytes; content = Payload.zero buffer_bytes; epoch = 0 } in
  fill t;
  t

let instance t = t.inst
let buffer t = t.content

let refill t =
  t.epoch <- t.epoch + 1;
  fill t

let app_path epoch = Fmt.str "%s/buffer.%d" app_dir epoch

let dump_app ?retain t =
  let fs = Vm.fs t.inst.Approach.vm in
  Guest_fs.write_file fs ~path:(app_path t.epoch) t.content;
  (match retain with
  | Some keep ->
      List.iter
        (fun epoch ->
          let path = app_path epoch in
          if Guest_fs.exists fs ~path then Guest_fs.delete_file fs ~path)
        (List.init (max 0 (t.epoch - keep + 1)) Fun.id)
  | None -> ());
  Guest_fs.sync fs

let dump_blcr t =
  (* The buffer is (most of) the process memory; blcr dumps it all. *)
  Process.set_mem t.proc t.buffer_bytes;
  ignore (Blcr.dump t.inst.Approach.vm)

let newest_app_file fs =
  let prefix = app_dir ^ "/buffer." in
  let epochs =
    List.filter_map
      (fun path ->
        if String.length path > String.length prefix
           && String.sub path 0 (String.length prefix) = prefix
        then
          int_of_string_opt
            (String.sub path (String.length prefix) (String.length path - String.length prefix))
        else None)
      (Guest_fs.list_files fs)
  in
  match List.sort Int.compare epochs with
  | [] -> failwith "Synthetic.restore_app: no checkpoint file"
  | epochs -> List.nth epochs (List.length epochs - 1)

let restore_app inst =
  let fs = Vm.fs inst.Approach.vm in
  let epoch = newest_app_file fs in
  let content = Guest_fs.read_file fs ~path:(app_path epoch) in
  let proc =
    Vm.register_process inst.Approach.vm ~name:"bench" ~mem:(Payload.length content)
  in
  { inst; proc; buffer_bytes = Payload.length content; content; epoch }

let restore_blcr inst =
  ignore (Blcr.restore inst.Approach.vm);
  let content = Blcr.newest_dump inst.Approach.vm ~name:"bench" in
  let proc =
    match Vm.processes inst.Approach.vm with
    | proc :: _ -> proc
    | [] -> assert false
  in
  { inst; proc; buffer_bytes = Payload.length content; content; epoch = 0 }

let resume_in_memory inst =
  match
    List.find_opt (fun p -> Process.name p = "bench") (Vm.processes inst.Approach.vm)
  with
  | None -> failwith "Synthetic.resume_in_memory: no restored process"
  | Some proc ->
      let bytes = Process.mem proc in
      { inst; proc; buffer_bytes = bytes; content = Payload.zero bytes; epoch = 0 }
