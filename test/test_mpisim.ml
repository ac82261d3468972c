(* Tests for the message-passing simulator and VM-level pieces it relies
   on: point-to-point matching, barriers, drain protocol, suspension
   interplay, and BLCR dump/restore mechanics. *)

open Simcore
open Netsim
open Vmsim
open Mpisim

let quick_boot =
  {
    Vm.boot_read_bytes = Size.mib;
    boot_read_chunk = Size.mib;
    boot_cpu_time = 0.1;
    boot_jitter = 0.0;
    noise_files = 1;
    noise_file_bytes = 1024;
    scattered_touches = 2;
    touch_bytes = 4096;
  }

let mk_world ?(vms = 2) () =
  let engine = Engine.create () in
  let net = Net.create engine { Net.default_config with latency = 1e-3 } in
  let machines =
    List.init vms (fun i ->
        let host = Net.add_host net ~name:(Fmt.str "m%d" i) in
        let dev = Vdisk.Block_dev.in_memory ~capacity:(Size.mib_n 32) in
        Vm.create engine ~host ~device:dev ~boot:quick_boot ~name:(Fmt.str "vm%d" i) ())
  in
  (engine, net, machines)

let run engine f =
  let result = ref None in
  let _ = Engine.Fiber.spawn engine (fun () -> result := Some (f ())) in
  (* Stop once the driver finishes: booted VMs keep daemon fibers (OS
     loggers) alive, so the event queue never drains on its own. *)
  while !result = None && Engine.step engine do
    ()
  done;
  Option.get !result

let boot_all engine vms =
  run engine (fun () ->
      Engine.all engine (List.map (fun vm () -> Vm.boot vm ~format_fs:true) vms))

let test_send_recv_matching () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let got = ref [] in
  let _ =
    run engine (fun () ->
        let a = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
        let b = Comm.attach comm ~rank:1 ~vm:(List.nth vms 1) in
        Engine.all engine
          [
            (fun () ->
              Comm.send a ~dst:1 ~bytes:1000;
              Comm.send a ~dst:1 ~bytes:2000);
            (fun () ->
              let first = Comm.recv b ~src:0 in
              let second = Comm.recv b ~src:0 in
              got := [ first; second ]);
          ])
  in
  Alcotest.(check (list int)) "fifo per channel" [ 1000; 2000 ] !got

let test_send_takes_network_time () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let elapsed =
    run engine (fun () ->
        let a = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
        let _b = Comm.attach comm ~rank:1 ~vm:(List.nth vms 1) in
        let t0 = Engine.now engine in
        Comm.send a ~dst:1 ~bytes:(Size.mib_n 100);
        Engine.now engine -. t0)
  in
  (* 100 MiB at 117.5 MiB/s ≈ 0.85 s. *)
  Alcotest.(check bool) (Fmt.str "%.2fs plausible" elapsed) true
    (elapsed > 0.8 && elapsed < 1.2)

let test_barrier_synchronizes () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let times = ref [] in
  let _ =
    run engine (fun () ->
        let a = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
        let b = Comm.attach comm ~rank:1 ~vm:(List.nth vms 1) in
        Engine.all engine
          [
            (fun () ->
              Comm.barrier a;
              times := ("a", Engine.now engine) :: !times);
            (fun () ->
              Engine.sleep engine 5.0;
              Comm.barrier b;
              times := ("b", Engine.now engine) :: !times);
          ])
  in
  List.iter
    (fun (_, t) -> Alcotest.(check bool) "released after slowest" true (t >= 5.0))
    !times

let test_drain_channels_quiesces () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let ok =
    run engine (fun () ->
        let a = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
        let b = Comm.attach comm ~rank:1 ~vm:(List.nth vms 1) in
        Engine.all engine
          [
            (fun () ->
              Comm.send a ~dst:1 ~bytes:5000;
              Comm.drain_channels a);
            (fun () ->
              ignore (Comm.recv b ~src:0);
              Comm.drain_channels b);
          ];
        Comm.in_flight comm = 0)
  in
  Alcotest.(check bool) "quiescent" true ok

let test_send_during_drain_rejected () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let raised =
    run engine (fun () ->
        let a = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
        let b = Comm.attach comm ~rank:1 ~vm:(List.nth vms 1) in
        let result = ref false in
        Engine.all engine
          [
            (fun () ->
              (* Start draining, then illegally try to send. *)
              ignore b;
              let fiber =
                Engine.Fiber.spawn engine (fun () -> Comm.drain_channels a)
              in
              Engine.yield engine;
              (try Comm.send a ~dst:1 ~bytes:1 with Comm.Draining -> result := true);
              Comm.drain_channels b;
              Engine.Fiber.join fiber);
          ];
        !result)
  in
  Alcotest.(check bool) "send rejected" true raised

let test_attach_validations () =
  let engine, net, vms = mk_world () in
  let comm = Comm.create engine net ~size:2 in
  let _ = Comm.attach comm ~rank:0 ~vm:(List.nth vms 0) in
  Alcotest.check_raises "double attach" (Invalid_argument "Comm.attach: rank already attached")
    (fun () -> ignore (Comm.attach comm ~rank:0 ~vm:(List.nth vms 1)));
  Alcotest.check_raises "bad rank" (Invalid_argument "Comm.attach: rank out of range")
    (fun () -> ignore (Comm.attach comm ~rank:7 ~vm:(List.nth vms 1)))

(* ------------------------------------------------------------------ *)
(* Vm + Blcr *)

let test_vm_boot_and_fs () =
  let engine, _net, vms = mk_world ~vms:1 () in
  boot_all engine vms;
  let vm = List.hd vms in
  Alcotest.(check bool) "running" true (Vm.state vm = Vm.Running);
  Alcotest.(check bool) "fs mounted" true (Guest_fs.list_files (Vm.fs vm) <> [])

let test_blcr_dump_restore_roundtrip () =
  let engine, _net, vms = mk_world ~vms:1 () in
  boot_all engine vms;
  let vm = List.hd vms in
  let restored =
    run engine (fun () ->
        ignore (Vm.register_process vm ~name:"solver" ~mem:(Size.mib_n 2));
        ignore (Vm.register_process vm ~name:"helper" ~mem:(Size.mib_n 1));
        let dumped = Blcr.dump vm in
        (* A second VM mounting the same device restores both dumps. *)
        let vm2 =
          Vm.create engine ~host:(Vm.host vm) ~device:(Vm.device vm) ~name:"vm-restore" ()
        in
        Vm.restore_running vm2;
        let restored = Blcr.restore vm2 in
        (dumped, restored, List.map Process.name (Vm.processes vm2)))
  in
  let dumped, got, names = restored in
  Alcotest.(check int) "bytes match" dumped got;
  Alcotest.(check (list string)) "processes" [ "helper"; "solver" ] (List.sort compare names)

let test_blcr_successive_dumps_new_files () =
  let engine, _net, vms = mk_world ~vms:1 () in
  boot_all engine vms;
  let vm = List.hd vms in
  let files =
    run engine (fun () ->
        ignore (Vm.register_process vm ~name:"p" ~mem:(Size.mib_n 1));
        ignore (Blcr.dump vm);
        ignore (Blcr.dump vm);
        List.filter
          (fun f -> String.length f > 5 && String.sub f 0 5 = "/ckpt")
          (Guest_fs.list_files (Vm.fs vm)))
  in
  Alcotest.(check int) "two context files" 2 (List.length files)

let test_ram_state_accounting () =
  let engine, _net, vms = mk_world ~vms:1 () in
  boot_all engine vms;
  let vm = List.hd vms in
  ignore engine;
  let base = Vm.ram_state_bytes vm in
  ignore (Vm.register_process vm ~name:"big" ~mem:(Size.mib_n 64));
  Alcotest.(check int) "process memory counted" (base + Size.mib_n 64) (Vm.ram_state_bytes vm)

let () =
  Alcotest.run "mpisim_vmsim"
    [
      ( "comm",
        [
          Alcotest.test_case "send/recv matching" `Quick test_send_recv_matching;
          Alcotest.test_case "send takes network time" `Quick test_send_takes_network_time;
          Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
          Alcotest.test_case "drain quiesces" `Quick test_drain_channels_quiesces;
          Alcotest.test_case "send during drain rejected" `Quick test_send_during_drain_rejected;
          Alcotest.test_case "attach validations" `Quick test_attach_validations;
        ] );
      ( "vm_blcr",
        [
          Alcotest.test_case "boot and fs" `Quick test_vm_boot_and_fs;
          Alcotest.test_case "blcr dump/restore roundtrip" `Quick
            test_blcr_dump_restore_roundtrip;
          Alcotest.test_case "successive dumps are new files" `Quick
            test_blcr_successive_dumps_new_files;
          Alcotest.test_case "ram state accounting" `Quick test_ram_state_accounting;
        ] );
    ]
