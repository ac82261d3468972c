open Simcore
open Netsim
open Storage

type params = {
  stripe_size : int;
  metadata_op_cost : float;
  request_overhead : float;
  write_window : int;
  read_window : int;
}

let default_params =
  {
    stripe_size = 256 * Size.kib;
    metadata_op_cost = 5e-3;
    request_overhead = 1e-3;
    write_window = 4;
    read_window = 4;
  }

type io_server = { shost : Net.host; sdisk : Disk.t; service : Rate_server.t }

type file = {
  fs : t;
  fpath : string;
  start_server : int;
  mutable stripes : Payload.t option array;
  mutable fsize : int;
}

and t = {
  engine : Engine.t;
  net : Net.t;
  prm : params;
  metadata_host : Net.host;
  metadata : Rate_server.t;
  servers : io_server array;
  files : (string, file) Hashtbl.t;
  mutable next_start : int;
}

let deploy engine net ~params ~metadata_host ~io_servers =
  if io_servers = [] then invalid_arg "Pvfs.deploy: no I/O servers";
  let mk (shost, sdisk) =
    {
      shost;
      sdisk;
      service = Rate_server.create engine ~rate:1e12 ~per_op:params.request_overhead ();
    }
  in
  {
    engine;
    net;
    prm = params;
    metadata_host;
    metadata =
      Rate_server.create engine ~rate:1e12 ~per_op:params.metadata_op_cost ();
    servers = Array.of_list (List.map mk io_servers);
    files = Hashtbl.create 256;
    next_start = 0;
  }

let engine t = t.engine
let params t = t.prm

let total_bytes t =
  (* lint: allow hashtbl-order — commutative sum *)
  Hashtbl.fold
    (fun _ file acc ->
      Array.fold_left
        (fun acc stripe ->
          acc + match stripe with Some p -> Payload.length p | None -> 0)
        acc file.stripes)
    t.files 0

(* Every namespace operation goes through the single metadata server. *)
let metadata_op t ~from =
  Net.message t.net ~src:from ~dst:t.metadata_host;
  Rate_server.process t.metadata 0;
  Net.message t.net ~src:t.metadata_host ~dst:from

let create t ~from ~path =
  metadata_op t ~from;
  if Hashtbl.mem t.files path then invalid_arg (Fmt.str "Pvfs.create: %s exists" path);
  let file = { fs = t; fpath = path; start_server = t.next_start; stripes = [||]; fsize = 0 } in
  t.next_start <- (t.next_start + 1) mod Array.length t.servers;
  Hashtbl.replace t.files path file;
  file

let exists t ~path = Hashtbl.mem t.files path

let server_of file index =
  let t = file.fs in
  t.servers.((file.start_server + index) mod Array.length t.servers)

let stored_len file index =
  if index >= Array.length file.stripes then 0
  else match file.stripes.(index) with Some p -> Payload.length p | None -> 0

let delete t ~from ~path =
  metadata_op t ~from;
  match Hashtbl.find_opt t.files path with
  | None -> raise Not_found
  | Some file ->
      Array.iteri
        (fun index stripe ->
          match stripe with
          | Some p -> Disk.free (server_of file index).sdisk (Payload.length p)
          | None -> ())
        file.stripes;
      Hashtbl.remove t.files path

let path file = file.fpath
let size file = file.fsize

let ensure_stripes file count =
  let current = Array.length file.stripes in
  if count > current then begin
    let grown = Array.make count None in
    Array.blit file.stripes 0 grown 0 current;
    file.stripes <- grown
  end

let stripe_content file index extent =
  match if index < Array.length file.stripes then file.stripes.(index) else None with
  | Some p ->
      if Payload.length p >= extent then Payload.sub p ~pos:0 ~len:extent
      else Payload.concat [ p; Payload.zero (extent - Payload.length p) ]
  | None -> Payload.zero extent

let m_bytes_written = Obs.Metrics.counter ~component:"pvfs" ~name:"bytes_written"
let m_bytes_read = Obs.Metrics.counter ~component:"pvfs" ~name:"bytes_read"

let write file ~from ~offset payload =
  let t = file.fs in
  let len = Payload.length payload in
  if offset < 0 then invalid_arg "Pvfs.write: negative offset";
  if len > 0 then begin
    Obs.Metrics.add m_bytes_written (float_of_int len);
    let stripe = t.prm.stripe_size in
    let first = offset / stripe and last = (offset + len - 1) / stripe in
    ensure_stripes file (last + 1);
    let write_stripe index () =
      let cstart = index * stripe in
      let wstart = max cstart offset and wend = min (cstart + stripe) (offset + len) in
      let written = wend - wstart in
      (* New stripe content: splice the written bytes over the old ones,
         extending with the write when it grows the stripe. *)
      let old_len = stored_len file index in
      let keep_prefix = min old_len (wstart - cstart) in
      let old = stripe_content file index (max old_len (wend - cstart)) in
      let content =
        Payload.concat
          [
            Payload.sub old ~pos:0 ~len:keep_prefix;
            Payload.zero (wstart - cstart - keep_prefix);
            Payload.sub payload ~pos:(wstart - offset) ~len:written;
            (if old_len > wend - cstart then
               Payload.sub old ~pos:(wend - cstart) ~len:(old_len - (wend - cstart))
             else Payload.zero 0);
          ]
      in
      let server = server_of file index in
      Net.transfer t.net ~src:from ~dst:server.shost written;
      Rate_server.process server.service 0;
      (* In-place stripe update: interleaved clients make the server disk
         seek between file regions. *)
      Disk.write server.sdisk ~stream:(2_000_000 + Net.host_id from) written;
      (* Disk.write accounted [written] bytes; the stored stripe grew by
         [delta] (more when a hole was zero-filled, less when overwriting
         in place) — reconcile the usage accounting. *)
      let delta = Payload.length content - old_len in
      if delta >= written then Disk.reserve server.sdisk (delta - written)
      else Disk.free server.sdisk (written - delta);
      file.stripes.(index) <- Some content
    in
    Parallel.windowed t.engine ~window:t.prm.write_window
      (List.init (last - first + 1) (fun k -> write_stripe (first + k)));
    file.fsize <- max file.fsize (offset + len)
  end

let read file ~from ~offset ~len =
  let t = file.fs in
  if offset < 0 || len < 0 || offset + len > file.fsize then
    invalid_arg "Pvfs.read: range out of bounds";
  if len = 0 then Payload.zero 0
  else begin
    Obs.Metrics.add m_bytes_read (float_of_int len);
    let stripe = t.prm.stripe_size in
    let first = offset / stripe and last = (offset + len - 1) / stripe in
    let read_stripe index =
      let cstart = index * stripe in
      let extent = min stripe (file.fsize - cstart) in
      (* Only the requested overlap is served and shipped. *)
      let rstart = max cstart offset and rend = min (cstart + extent) (offset + len) in
      let requested = rend - rstart in
      let server = server_of file index in
      Rate_server.process server.service 0;
      Disk.read server.sdisk ~stream:(2_000_000 + Net.host_id from) requested;
      Net.transfer t.net ~src:server.shost ~dst:from requested;
      Payload.sub (stripe_content file index extent) ~pos:(rstart - cstart)
        ~len:requested
    in
    let parts =
      Parallel.map_windowed t.engine ~window:t.prm.read_window read_stripe
        (List.init (last - first + 1) (fun k -> first + k))
    in
    (* Each part is exactly its stripe's overlap with the request. *)
    Payload.concat parts
  end
