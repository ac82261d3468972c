open Simcore
open Netsim
open Vdisk

type boot_profile = {
  boot_read_bytes : int;
  boot_read_chunk : int;
  boot_cpu_time : float;
  boot_jitter : float;
  noise_files : int;
  noise_file_bytes : int;
  scattered_touches : int;
  touch_bytes : int;
}

let default_boot_profile =
  {
    boot_read_bytes = 180 * Size.mib;
    boot_read_chunk = Size.mib;
    boot_cpu_time = 18.0;
    boot_jitter = 2.0;
    noise_files = 8;
    noise_file_bytes = 100 * Size.kib;
    scattered_touches = 36;
    touch_bytes = 64 * Size.kib;
  }

type state = Created | Booting | Running | Suspended | Dead

type t = {
  engine : Engine.t;
  vhost : Net.host;
  vdevice : Block_dev.t;
  vname : string;
  ram : int;
  os_ram_overhead : int;
  boot_profile : boot_profile;
  vgroup : Engine.Group.t;
  rng : Rng.t;
  mutable vstate : state;
  mutable vfs : Guest_fs.t option;
  mutable procs : Process.t list; (* newest first *)
  mutable resume_signal : unit Engine.Ivar.t option;
}

let create engine ~host ~device ?(ram = Size.gib_n 2) ?(os_ram_overhead = 118 * Size.mib)
    ?(boot = default_boot_profile) ~name () =
  {
    engine;
    vhost = host;
    vdevice = device;
    vname = name;
    ram;
    os_ram_overhead;
    boot_profile = boot;
    vgroup = Engine.Group.create ();
    (* Keyed by VM name, not split from the shared engine stream: VMs are
       created inside deploy fibers whose events tie, so split order — and
       with it every boot-jitter draw — would depend on the tie-break
       schedule. *)
    rng = Engine.derived_rng engine ("vm." ^ name);
    vstate = Created;
    vfs = None;
    procs = [];
    resume_signal = None;
  }

let name t = t.vname
let host t = t.vhost
let state t = t.vstate
let device t = t.vdevice
let engine t = t.engine
let group t = t.vgroup

let fs t =
  match t.vfs with
  | Some fs -> fs
  | None -> failwith (Fmt.str "Vm.fs: %s not booted" t.vname)

let pause_point t =
  match t.vstate with
  | Dead -> raise Engine.Cancelled
  | Suspended ->
      let signal =
        match t.resume_signal with
        | Some s -> s
        | None ->
            let s = Engine.Ivar.create t.engine in
            t.resume_signal <- Some s;
            s
      in
      Engine.Ivar.read signal
  | Created | Booting | Running -> ()

(* Background OS activity: appends a little log data periodically; the
   writes land in the guest page cache and reach the disk at the next
   sync — part of the "minor updates performed by the guest operating
   system" the paper measures in Figure 4. *)
let os_logger t () =
  let fs = fs t in
  let rec loop i =
    Engine.sleep t.engine (20.0 +. Rng.float t.rng 10.0);
    pause_point t;
    Guest_fs.append_file fs ~path:"/var/log/syslog" (Payload.pattern ~seed:77L 2048);
    loop (i + 1)
  in
  loop 0

let boot t ~format_fs =
  if t.vstate <> Created then failwith (Fmt.str "Vm.boot: %s already booted" t.vname);
  t.vstate <- Booting;
  let p = t.boot_profile in
  (* The hot set: scattered reads across the image (kernel, init, shared
     libraries) — this is the traffic lazy transfer saves on. *)
  let capacity = t.vdevice.Block_dev.capacity in
  let reads = Size.div_ceil p.boot_read_bytes p.boot_read_chunk in
  let stride = max 1 (capacity / max 1 reads) in
  for i = 0 to reads - 1 do
    let offset = min (i * stride) (max 0 (capacity - p.boot_read_chunk)) in
    let len = min p.boot_read_chunk (capacity - offset) in
    ignore (Block_dev.read t.vdevice ~offset ~len)
  done;
  Engine.sleep t.engine (p.boot_cpu_time +. Rng.float t.rng p.boot_jitter);
  let fs =
    if format_fs then Guest_fs.format t.vdevice
    else Guest_fs.mount t.vdevice
  in
  t.vfs <- Some fs;
  (* Boot-time noise: config files and logs the OS touches, which end up in
     every disk snapshot. *)
  for i = 0 to p.noise_files - 1 do
    Guest_fs.write_file fs
      ~path:(Fmt.str "/var/boot-noise/%d" i)
      (Payload.pattern ~seed:(Int64.of_int (1000 + i)) p.noise_file_bytes)
  done;
  (* In-place updates to existing OS files, scattered across the upper
     half of the image (the file system allocates from the lower half).
     Each touch dirties whole copy-on-write units in the underlying image,
     so the same guest behaviour costs more snapshot space at coarser COW
     granularity. *)
  let capacity = t.vdevice.Block_dev.capacity in
  for _ = 1 to p.scattered_touches do
    let span = capacity / 2 - p.touch_bytes in
    let offset = (capacity / 2) + Rng.int t.rng (max 1 span) in
    Block_dev.write t.vdevice ~offset (Payload.pattern ~seed:0x905EL p.touch_bytes)
  done;
  (* Boot ends with a quiescent, synced file system on the virtual disk. *)
  Guest_fs.sync fs;
  t.vstate <- Running;
  Trace.emit t.engine ~component:t.vname "booted (format=%b)" format_fs;
  ignore (Engine.Fiber.spawn t.engine ~name:(t.vname ^ ".os-logger") ~group:t.vgroup (os_logger t))

let restore_running t =
  if t.vstate <> Created then failwith (Fmt.str "Vm.restore_running: %s already started" t.vname);
  t.vstate <- Booting;
  (* Resuming from a full snapshot: device attach plus hypervisor resume,
     no guest reboot. *)
  Engine.sleep t.engine 1.0;
  t.vfs <- Some (Guest_fs.mount t.vdevice);
  t.vstate <- Running;
  ignore (Engine.Fiber.spawn t.engine ~name:(t.vname ^ ".os-logger") ~group:t.vgroup (os_logger t))

let suspend t =
  match t.vstate with
  | Running ->
      t.vstate <- Suspended;
      Trace.emit t.engine ~component:t.vname "suspended";
      Obs.Span.with_ t.engine ~component:"vm" ~name:"vm.suspend" (fun () ->
          Engine.sleep t.engine 0.05)
  | Suspended -> ()
  | Dead ->
      (* Fail-stop mid-checkpoint: the caller's fiber belongs to a
         cancelled gang, behave like any other blocking point. *)
      raise Engine.Cancelled
  | Created | Booting -> failwith (Fmt.str "Vm.suspend: %s not running" t.vname)

let resume t =
  match t.vstate with
  | Suspended ->
      t.vstate <- Running;
      (match t.resume_signal with
      | Some s ->
          t.resume_signal <- None;
          Engine.Ivar.fill s ()
      | None -> ());
      Obs.Span.with_ t.engine ~component:"vm" ~name:"vm.resume" (fun () ->
          Engine.sleep t.engine 0.05)
  | Running -> ()
  | Dead -> raise Engine.Cancelled
  | Created | Booting -> failwith (Fmt.str "Vm.resume: %s not suspended" t.vname)

let kill t =
  if t.vstate <> Dead then begin
    t.vstate <- Dead;
    Trace.emit t.engine ~component:t.vname "killed (fail-stop)";
    Engine.Group.cancel t.engine t.vgroup
  end

let spawn_process t ~name ~mem f =
  let proc = Process.create ~name ~mem in
  t.procs <- proc :: t.procs;
  ignore (Engine.Fiber.spawn t.engine ~name:(t.vname ^ "." ^ name) ~group:t.vgroup f);
  proc

let register_process t ~name ~mem =
  let proc = Process.create ~name ~mem in
  t.procs <- proc :: t.procs;
  proc

let processes t = List.rev t.procs
let process_memory t = List.fold_left (fun acc p -> acc + Process.mem p) 0 t.procs
let ram_state_bytes t = min t.ram (process_memory t + t.os_ram_overhead)
