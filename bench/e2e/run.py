#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark in the BENCHMARK.json shape.

    python3 bench/e2e/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. It builds
bench/e2e/blobcr_bench.exe with dune, runs it, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 0 the binary sets the workload up in three fresh processes
and reports the median set-up time. With --trace 1 it runs the workload
untraced and then traced, each in a fresh process. Everything is written
under _build/; the dune cache is disabled so nothing lands outside the
checkout.

The end-to-end names here are the ones every workload reports:
op_p50_s is the median simulated latency of the workload's global
operation, a checkpoint or, on restart-storm, a restart. The binary's own
output carries the full catalogue; see bench/e2e/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "e2e", "blobcr_bench.exe")
SETUPS = 3

# (contract name, unit, names in the binary's output, first present wins)
END_TO_END = [
    ("op_p50_s", "sim_s", ["ckpt_p50_s", "restart_p50_s"]),
    ("cycle_wall_ref", "ref", ["cycle_wall_ref"]),
    ("live_heap_mib", "MiB", ["live_heap_mib"]),
    ("setup_s", "s", ["setup_s"]),
]

PER_LAYER = [
    ("simcore.events", "count", ["simcore.events"]),
    ("simcore.ns_per_event", "ns", ["simcore.ns_per_event"]),
    ("simcore.hashed_mib", "MiB", ["simcore.hashed_mib"]),
    ("simcore.setup_hashed_mib", "MiB", ["simcore.setup_hashed_mib"]),
    ("runtime.minor_mwords", "Mwords", ["runtime.minor_mwords"]),
    ("runtime.major_gcs", "count", ["runtime.major_gcs"]),
    ("netsim.sent_mib", "MiB", ["netsim.sent_mib"]),
    ("storage.write_mib", "MiB", ["storage.write_mib"]),
    ("storage.read_mib", "MiB", ["storage.read_mib"]),
    ("storage.busy_s", "sim_s", ["storage.busy_s"]),
    ("storage.busy_max_s", "sim_s", ["storage.busy_max_s"]),
    ("blobseer.repo_mib", "MiB", ["blobseer.repo_mib"]),
    ("blobseer.digest_mib", "MiB", ["blobseer.digest_mib"]),
    ("blobseer.digest_cached_frac", "ratio", ["blobseer.digest_cached_frac"]),
    ("blobseer.publishes", "count", ["blobseer.publishes"]),
    ("vdisk.chunks_shipped", "count", ["vdisk.chunks_shipped"]),
    ("vdisk.shipped_mib", "MiB", ["vdisk.shipped_mib"]),
    ("vdisk.chunks_deduped", "count", ["vdisk.chunks_deduped"]),
    ("vdisk.chunks_suppressed", "count", ["vdisk.chunks_suppressed"]),
    ("vdisk.cow_mib", "MiB", ["vdisk.cow_mib"]),
    ("vdisk.fetched_mib", "MiB", ["vdisk.fetched_mib"]),
    ("vdisk.prefetch_coalesced_frac", "ratio", ["vdisk.prefetch_coalesced_frac"]),
    ("core.precopy_rounds", "count", ["core.precopy_rounds"]),
    ("core.precopy_mib", "MiB", ["core.precopy_mib"]),
    ("core.build_wall_s", "s", ["core.build_wall_s"]),
    ("core.deploy_wall_s", "s", ["core.deploy_wall_s"]),
    ("core.op_wall_s", "s", ["core.ckpt_wall_s", "core.restart_wall_s"]),
    ("obs.overhead_frac", "ratio", ["obs.overhead_frac"]),
    ("host.reference_ms", "ms", ["host.reference_ms"]),
]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a repository checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./bench/e2e/blobcr_bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail("build failed")

    args = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    args += ["--traced", "--setups", "1"] if a.trace else ["--setups", str(SETUPS)]
    run = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = [line for line in run.stdout.splitlines() if line.startswith("{")]
    if run.returncode not in (0, 1) or not lines:
        return fail("benchmark run produced no result (exit %d)" % run.returncode)
    out = json.loads(lines[-1])

    metrics = {}
    for name, unit, sources in PER_LAYER if a.trace else END_TO_END:
        found = [out["metrics"][s]["value"] for s in sources if s in out["metrics"]]
        if not found:
            return fail("metric %s missing from the %s output" % (name, a.workload))
        metrics[name] = {"value": found[0], "unit": unit}
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
