(* The metric catalogue: every end-to-end metric with its direction and
   the bound by which it may worsen before a change counts as a
   regression. README.md lists which workload reports which metric and
   which layer metric should move it. *)

type better = Lower | Higher

type bound =
  | Rel of float  (** share of the parent's median *)
  | Abs of float  (** absolute difference *)

type spec = { name : string; unit_ : string; better : better; bound : bound }

let spec name unit_ better bound = { name; unit_; better; bound }

(* Simulated-clock metrics repeat exactly for a seed, so their bound only
   absorbs model changes a change declares; host-clock metrics carry the
   host's noise. *)
let end_to_end =
  [
    spec "ckpt_p50_s" "sim_s" Lower (Rel 0.01);
    spec "ckpt_p75_s" "sim_s" Lower (Rel 0.01);
    spec "restart_p50_s" "sim_s" Lower (Rel 0.01);
    spec "restart_p75_s" "sim_s" Lower (Rel 0.01);
    spec "suspend_p50_s" "sim_s" Lower (Rel 0.01);
    spec "suspend_p90_s" "sim_s" Lower (Rel 0.01);
    spec "makespan_s" "sim_s" Lower (Rel 0.01);
    spec "writer_mibps" "MiB/sim_s" Higher (Rel 0.01);
    spec "stored_per_user_byte" "ratio" Lower (Rel 0.01);
    spec "failed_frac" "ratio" Lower (Abs 0.0);
    spec "wall_s" "s" Lower (Rel 0.10);
    spec "cycle_wall_ms" "ms" Lower (Rel 0.10);
    spec "cycle_wall_ref" "ref" Lower (Rel 0.10);
    spec "setup_s" "s" Lower (Rel 0.10);
    spec "peak_heap_mib" "MiB" Lower (Rel 0.10);
    spec "live_heap_mib" "MiB" Lower (Rel 0.10);
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) end_to_end

(* A metric that must come out identical for one seed on any host and
   with tracing on or off: everything except host-clock times, the OCaml
   runtime's own counters and the heap (a traced run also holds its
   spans). *)
let deterministic (m : Rig.metric) =
  (not (List.mem m.Rig.unit_ [ "s"; "ms"; "ns"; "ref" ]))
  && (not (String.starts_with ~prefix:"runtime." m.name))
  && not (List.mem m.name [ "peak_heap_mib"; "live_heap_mib"; "obs.overhead_frac" ])

(* Critical-path phases of the traced run: span name to the metric its
   self time is reported under. Spans not listed fold into [core.other_s]. *)
let phases =
  [
    ("ckpt.dump", "core.dump_s");
    ("proxy.request", "core.proxy_s");
    ("proxy.backoff", "core.proxy_s");
    ("vm.suspend", "vmsim.suspend_s");
    ("ckpt.clone", "vdisk.clone_s");
    ("blob.meta", "blobseer.meta_s");
    ("blob.meta.commit", "blobseer.meta_s");
    ("blob.write", "blobseer.write_s");
    ("blob.publish", "blobseer.publish_s");
    ("vmgr.publish", "blobseer.publish_s");
    ("vm.resume", "vmsim.resume_s");
    ("restart.deploy", "core.restart_deploy_s");
    ("restart.restore", "core.restart_restore_s");
  ]

let ckpt_phase_metrics =
  [
    "core.dump_s";
    "core.proxy_s";
    "vmsim.suspend_s";
    "vdisk.clone_s";
    "blobseer.meta_s";
    "blobseer.write_s";
    "blobseer.publish_s";
    "vmsim.resume_s";
    "core.other_s";
  ]

let restart_phase_metrics = [ "core.restart_deploy_s"; "core.restart_restore_s"; "core.other_s" ]
