(* Fault-tolerant CM1: the paper's motivating scenario end to end.

   A CM1-like atmospheric simulation runs across several VM instances
   under the supervisor, with periodic BlobCR checkpoints. A deterministic
   fault injector crash-stops one compute node mid-run — taking the whole
   tightly-coupled application down — and later fail-stops a data
   provider. The supervisor detects the failure through its heartbeat
   prober, rolls the gang back to the last global checkpoint, re-deploys
   on spare nodes and resumes; replicated chunks let snapshot reads fail
   over around the lost provider. Only the iterations since the last
   checkpoint are lost.

     dune exec examples/cm1_fault_tolerance.exe *)

open Simcore
open Blobcr
open Workloads

let gang = 2
let checkpoint_every = 4 (* work units (= iterations) *)
let total_units = 12

let cm1_config =
  {
    Cm1.default_config with
    procs_per_vm = 2;
    subdomain_state_bytes = Size.mib_n 1;
    compute_per_iteration = 2.0;
    summary_every = 2;
  }

(* Scripted failures: crash the node hosting the first instance shortly
   after the second checkpoint lands, then fail-stop a surviving data
   provider while recovery is re-reading the snapshot — the restart rides
   on replica failover. Times are relative to the injector's start, once
   the supervisor's initial deploy and checkpoint are done. *)
let faults =
  [
    { Faults.at = 18.0; action = Faults.Crash_host 0 };
    { Faults.at = 19.2; action = Faults.Fail_provider 2 };
  ]

let () =
  (* Replicated chunks so snapshots survive a co-located provider loss. *)
  let cal =
    {
      Calibration.quick_test with
      blobseer =
        { Calibration.quick_test.Calibration.blobseer with Blobseer.Types.replication = 2 };
    }
  in
  let cluster = Cluster.build cal in
  Cluster.run cluster (fun () ->
      let say fmt = Fmt.pr ("[t=%7.2fs] " ^^ fmt ^^ "@.") (Cluster.now cluster) in
      say "deploying %d supervised CM1 instances" gang;
      let workload = Cm1.supervised_workload cluster cm1_config ~iters_per_unit:1 in
      let policy =
        { Supervisor.default_policy with checkpoint_interval = checkpoint_every }
      in
      let report =
        Supervisor.report
          (Supervisor.run cluster ~kind:Approach.Blobcr ~policy ~faults ~id:"cm1" ~gang
             ~units:total_units ~workload ())
      in
      List.iter
        (fun event ->
          match event with
          | Supervisor.Deployed { at; ids } ->
              Fmt.pr "[t=%7.2fs] deployed: %s@." at (String.concat ", " ids)
          | Supervisor.Checkpoint_committed { at; units; _ } ->
              Fmt.pr "[t=%7.2fs] global checkpoint committed at %d units@." at units
          | Supervisor.Checkpoint_degraded { at; units; reason } ->
              Fmt.pr "[t=%7.2fs] checkpoint degraded at %d units (%s)@." at units reason
          | Supervisor.Failure_detected { at; dead } ->
              Fmt.pr "[t=%7.2fs] MACHINE FAILURE detected: %s@." at (String.concat ", " dead)
          | Supervisor.Recovered { at; attempt; resumed_units } ->
              Fmt.pr "[t=%7.2fs] recovery #%d complete: resumed from %d units@." at attempt
                resumed_units
          | Supervisor.Abandoned { at; ids } ->
              Fmt.pr "[t=%7.2fs] abandoned: %s@." at (String.concat ", " ids)
          | Supervisor.Journal_recovered { at; intents } ->
              Fmt.pr "[t=%7.2fs] journal recovery: %d intent(s) rolled back@." at intents
          | Supervisor.Scrubbed { at; repaired; unrepairable } ->
              Fmt.pr "[t=%7.2fs] scrub: %d repaired, %d unrepairable@." at repaired
                unrepairable
          | Supervisor.Rollback_demoted { at; from_units; to_units } ->
              Fmt.pr "[t=%7.2fs] rollback target demoted: %d -> %d units@." at from_units
                to_units
          | Supervisor.Failed_over { at; rpo_versions; rpo_bytes; rpo_units; rto } ->
              Fmt.pr
                "[t=%7.2fs] SITE FAILOVER: standby promoted, lost %d version(s) / %d bytes, \
                 rolled back %d unit(s), RTO %.2fs@."
                at rpo_versions rpo_bytes rpo_units rto)
        report.Supervisor.events;
      say "simulation %s: %d/%d units, %d checkpoints, %d recoveries"
        (if report.Supervisor.finished then "complete" else "ABANDONED")
        report.Supervisor.units_completed total_units report.Supervisor.checkpoints
        report.Supervisor.recoveries;
      say "useful %.1fs, wasted (rolled back) %.1fs, mean recovery latency %.2fs"
        report.Supervisor.useful_time report.Supervisor.wasted_time
        (match report.Supervisor.recovery_latencies with
        | [] -> 0.0
        | ls -> Stats.mean ls);
      say "storage used for checkpoints: %a" Size.pp (Approach.storage_total cluster))
