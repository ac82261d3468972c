open Blobcr
open Workloads

type point = {
  combo : Combos.t;
  vms : int;
  processes : int;
  checkpoint_time : float;
  snapshot_bytes : float;
}

let run_point (scale : Scale.t) ~(combo : Combos.t) ~vms =
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal in
  Cluster.run cluster (fun () ->
      let instances = Synthetic_sweep.deploy_many cluster combo.Combos.kind ~n:vms in
      let cm1 = Cm1.setup cluster ~instances scale.Scale.cm1_config in
      Cm1.iterate cm1 scale.Scale.cm1_warmup_iterations;
      let dump =
        match combo.Combos.dump with
        | Combos.App -> Cm1.dump_app cm1
        | Combos.Blcr -> Cm1.dump_blcr cm1
        | Combos.Full_vm -> invalid_arg "Cm1_sweep: qcow2-full is not evaluated on CM1"
      in
      let t0 = Cluster.now cluster in
      let snapshots = Protocol.global_checkpoint_exn cluster ~instances ~dump in
      let checkpoint_time = Cluster.now cluster -. t0 in
      let snapshot_bytes =
        Simcore.Stats.mean
          (List.map (fun s -> float_of_int (Approach.snapshot_bytes s)) snapshots)
      in
      {
        combo;
        vms;
        processes = Cm1.process_count cm1;
        checkpoint_time;
        snapshot_bytes;
      })

let sweep (scale : Scale.t) ~progress =
  List.concat_map
    (fun combo ->
      List.map
        (fun vms ->
          let point = run_point scale ~combo ~vms in
          progress point;
          point)
        scale.Scale.cm1_vm_counts)
    Combos.disk_only
