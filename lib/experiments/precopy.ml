open Simcore
open Blobcr
open Vmsim

(* Live-checkpoint sweep: one BlobCR instance runs a guest writer that
   dirties its working set at a controlled rate while the driver takes
   periodic checkpoints in one of three modes — classic stop-the-world,
   live with the final delta committed under suspend ("live-sync"), and
   live with the final delta shipped in the background after the resume
   ("live-bg"). The stop-the-world window is measured where it hurts: as
   the longest stall the writer observes at its own pause points, not as a
   driver-side timer. Interference is what live checkpointing costs the
   guest — frozen-chunk copy-on-write traffic plus pre-copy overshipping. *)

type point = {
  interval : float;  (** seconds between checkpoint requests *)
  dirty_mbps : float;  (** guest dirtying rate, MiB/s *)
  rounds : int;  (** pre-copy round budget (0 = none) *)
  mode : string;  (** ["stw" | "live-sync" | "live-bg"] *)
  suspend_max : float;  (** longest writer-observed stall, seconds *)
  ckpt_latency : float;  (** mean checkpoint completion, seconds *)
  shipped_bytes : int;  (** total commit bytes physically shipped *)
  cow_bytes : int;  (** frozen-chunk bytes copied to diff logs *)
  achieved_mbps : float;  (** writer throughput actually sustained *)
}

let mode_of p ~rounds ~background =
  match p with
  | "stw" -> Approach.stop_the_world
  | _ -> Approach.Live { rounds; background }

let slot_path slot = Fmt.str "/precopy/slot.%d" slot
let slots = 8

(* Content is a function of (slot, iteration) so every rewrite really
   changes the chunk's bytes — no clean-rewrite suppression noise. *)
let slot_seed ~slot ~iter = Int64.of_int ((((iter * 131) + 0xC0FFEE) * 65_599) + slot)

let run_point (scale : Scale.t) ~interval ~dirty_mbps ~rounds ~mode () =
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal in
  Cluster.run cluster (fun () ->
      let engine = cluster.Cluster.engine in
      let node = Cluster.node cluster 0 in
      let inst = Approach.deploy cluster Approach.Blobcr ~node ~id:"precopy" in
      let mirror =
        match inst.Approach.stack with
        | Approach.Mirror_stack m -> m
        | Approach.Qcow2_stack _ -> assert false
      in
      let fs = Vm.fs inst.Approach.vm in
      let write_bytes = scale.Scale.precopy_write_bytes in
      let pause = float_of_int write_bytes /. (dirty_mbps *. float_of_int Size.mib) in
      let stop = ref false and stall_max = ref 0.0 and written = ref 0 in
      let writer () =
        let iter = ref 0 in
        while not !stop do
          (* The stall a suspended VM inflicts on the guest: pause points
             block for the whole remaining suspend window. *)
          let t0 = Engine.now engine in
          Vm.pause_point inst.Approach.vm;
          let stall = Engine.now engine -. t0 in
          if stall > !stall_max then stall_max := stall;
          let slot = !iter mod slots in
          Guest_fs.write_file fs ~path:(slot_path slot)
            (Payload.pattern ~seed:(slot_seed ~slot ~iter:!iter) write_bytes);
          Guest_fs.sync fs;
          written := !written + write_bytes;
          incr iter;
          Engine.sleep engine pause
        done
      in
      ignore (Vm.spawn_process inst.Approach.vm ~name:"writer" ~mem:write_bytes writer);
      let ckpt_mode = mode_of mode ~rounds ~background:(mode = "live-bg") in
      let dump (i : Approach.instance) = Guest_fs.sync (Vm.fs i.Approach.vm) in
      let run_start = Engine.now engine in
      let latency_sum = ref 0.0 in
      for _epoch = 1 to scale.Scale.precopy_epochs do
        Engine.sleep engine interval;
        let t0 = Engine.now engine in
        ignore
          (Protocol.global_checkpoint_exn ~mode:ckpt_mode cluster ~instances:[ inst ] ~dump);
        latency_sum := !latency_sum +. (Engine.now engine -. t0)
      done;
      let elapsed = Engine.now engine -. run_start in
      stop := true;
      let stats = Vdisk.Mirror.total_commit_stats mirror in
      {
        interval;
        dirty_mbps;
        rounds;
        mode;
        suspend_max = !stall_max;
        ckpt_latency = !latency_sum /. float_of_int scale.Scale.precopy_epochs;
        shipped_bytes = stats.Blobseer.Client.bytes_shipped;
        cow_bytes = Vdisk.Mirror.cow_bytes mirror;
        achieved_mbps =
          (if elapsed > 0.0 then
             float_of_int !written /. float_of_int Size.mib /. elapsed
           else 0.0);
      })

let run (scale : Scale.t) ~progress =
  List.concat_map
    (fun interval ->
      List.concat_map
        (fun dirty_mbps ->
          (* One stop-the-world anchor per (interval, dirty-rate) cell,
             then the live modes across the pre-copy round budgets. *)
          let stw =
            progress (Fmt.str "precopy: int=%gs d=%gMiB/s stw" interval dirty_mbps);
            run_point scale ~interval ~dirty_mbps ~rounds:0 ~mode:"stw" ()
          in
          stw
          :: List.concat_map
               (fun rounds ->
                 List.map
                   (fun mode ->
                     progress
                       (Fmt.str "precopy: int=%gs d=%gMiB/s k=%d %s" interval dirty_mbps
                          rounds mode);
                     run_point scale ~interval ~dirty_mbps ~rounds ~mode ())
                   [ "live-sync"; "live-bg" ])
               scale.Scale.precopy_rounds)
        scale.Scale.precopy_dirty_mbps)
    scale.Scale.precopy_intervals

let series_label p = Fmt.str "%s int=%gs d=%gMiB/s" p.mode p.interval p.dirty_mbps

let tables_of points =
  let table name ~title ~y_label y =
    ( name,
      Stats.table ~title ~x_label:"pre-copy rounds" ~y_label
        (Stats.group ~order:String.compare ~key:series_label ~label:Fun.id
           ~x:(fun p -> float_of_int p.rounds)
           ~y points) )
  in
  [
    table "precopy-suspend" ~title:"Longest guest-observed stall (the stop-the-world window)"
      ~y_label:"seconds" (fun p -> p.suspend_max);
    table "precopy-latency"
      ~title:"Mean checkpoint completion time (including background ship)"
      ~y_label:"seconds" (fun p -> p.ckpt_latency);
    table "precopy-shipped"
      ~title:"Total commit bytes shipped (pre-copy overship included)" ~y_label:"bytes"
      (fun p -> float_of_int p.shipped_bytes);
    table "precopy-interference"
      ~title:"Frozen-chunk copy-on-write traffic charged to the guest" ~y_label:"bytes"
      (fun p -> float_of_int p.cow_bytes);
    table "precopy-throughput" ~title:"Writer throughput sustained across the run"
      ~y_label:"MiB/s" (fun p -> p.achieved_mbps);
  ]

let point_json p =
  Printf.sprintf
    "    {\"interval_s\": %g, \"dirty_mibps\": %g, \"rounds\": %d, \"mode\": %S,\n\
    \     \"suspend_max_s\": %.6f, \"ckpt_latency_s\": %.6f,\n\
    \     \"shipped_bytes\": %d, \"cow_bytes\": %d,\n\
    \     \"achieved_mibps\": %.3f}"
    p.interval p.dirty_mbps p.rounds p.mode p.suspend_max p.ckpt_latency p.shipped_bytes
    p.cow_bytes p.achieved_mbps
