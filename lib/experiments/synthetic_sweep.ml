open Simcore
open Blobcr
open Workloads

type point = {
  combo : Combos.t;
  n : int;
  checkpoint_time : float;
  restart_time : float;
  snapshot_bytes : float;
  storage_bytes : int;
}

type successive = {
  round_times : float list;
  cumulative_storage : int list;
}

let deploy_many cluster kind ~n =
  if n > Cluster.node_count cluster then invalid_arg "deploy_many: more instances than nodes";
  let instances = Array.make n None in
  Engine.all cluster.Cluster.engine ~name:"multi-deploy"
    (List.init n (fun i () ->
         instances.(i) <-
           Some
             (Approach.deploy cluster kind ~node:(Cluster.node cluster i)
                ~id:(Fmt.str "vm%03d" i))));
  Array.to_list (Array.map Option.get instances)

(* Restart targets: shifted so every instance lands on a different node
   than the one it ran on. *)
let restart_node cluster ~n i =
  let count = Cluster.node_count cluster in
  let shift = if 2 * n <= count then n else 1 in
  Cluster.node cluster ((i + shift) mod count)

let run_point (scale : Scale.t) ~(combo : Combos.t) ~n ~buffer =
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal in
  Obs.Record.label_track cluster.Cluster.engine (Fmt.str "%s n=%d" combo.Combos.label n);
  Cluster.run cluster (fun () ->
      let instances = deploy_many cluster combo.Combos.kind ~n in
      let benches = Hashtbl.create n in
      List.iter
        (fun inst ->
          Hashtbl.replace benches inst.Approach.id (Synthetic.start inst ~buffer_bytes:buffer))
        instances;
      (* Global checkpoint. *)
      let t0 = Cluster.now cluster in
      let snapshots =
        Protocol.global_checkpoint_exn cluster ~instances ~dump:(fun inst ->
            Combos.dump combo (Hashtbl.find benches inst.Approach.id))
      in
      let checkpoint_time = Cluster.now cluster -. t0 in
      (* Kill everything and restart on different nodes. *)
      Protocol.kill_all instances;
      let plan =
        List.mapi
          (fun i snapshot -> (restart_node cluster ~n i, Fmt.str "vm%03dr" i, snapshot))
          snapshots
      in
      let t0 = Cluster.now cluster in
      let _ =
        Protocol.global_restart_exn cluster ~plan ~restore:(fun inst ->
            ignore (Combos.restore combo inst))
      in
      let restart_time = Cluster.now cluster -. t0 in
      let snapshot_bytes =
        Stats.mean (List.map (fun s -> float_of_int (Approach.snapshot_bytes s)) snapshots)
      in
      {
        combo;
        n;
        checkpoint_time;
        restart_time;
        snapshot_bytes;
        storage_bytes = Approach.storage_total cluster;
      })

let sweep (scale : Scale.t) ~buffer ~progress =
  List.concat_map
    (fun combo ->
      List.map
        (fun n ->
          let point = run_point scale ~combo ~n ~buffer in
          progress point;
          point)
        scale.Scale.instance_counts)
    Combos.all

let run_successive (scale : Scale.t) ~(combo : Combos.t) ~rounds ~buffer =
  let cluster = Cluster.build ~seed:scale.Scale.seed ~schedule:scale.Scale.schedule scale.Scale.cal in
  Obs.Record.label_track cluster.Cluster.engine
    (Fmt.str "%s successive x%d" combo.Combos.label rounds);
  Cluster.run cluster (fun () ->
      let instances = deploy_many cluster combo.Combos.kind ~n:1 in
      let inst = List.hd instances in
      let bench = Synthetic.start inst ~buffer_bytes:buffer in
      let times = ref [] and storage = ref [] in
      for _ = 1 to rounds do
        Synthetic.refill bench;
        let t0 = Cluster.now cluster in
        let _ =
          Protocol.global_checkpoint_exn cluster ~instances ~dump:(fun _ ->
              Combos.dump combo bench)
        in
        times := (Cluster.now cluster -. t0) :: !times;
        storage := Approach.storage_total cluster :: !storage
      done;
      { round_times = List.rev !times; cumulative_storage = List.rev !storage })
