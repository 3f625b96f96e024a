#!/usr/bin/env python3
"""Builds asset_bench from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload wire_counter --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this
file. The library and benchmark are built once into .bench_build/ (a
later run only re-checks the build). With --trace 0 the run reports the
end-to-end metrics BENCHMARK.json names; with --trace 1 it adds a traced
window and the layer ledger and reports the per-layer metrics. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run's own result file, Chrome trace and log stay in
.bench_build/last/<workload>-trace<0|1>/ until the next such run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "asset_bench")
# Whole-run budget: the build check plus the benchmark must end well
# inside 180 s once built; a first build may take longer.
RUN_BUDGET_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds asset_bench; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "asset_bench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                # A failed configure must not leave a cache that skips the
                # configure step next time.
                if "-S" in cmd:
                    shutil.rmtree(BUILD, ignore_errors=True)
                die(f"build failed: {' '.join(cmd)} (see {log_path})")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    names = metric_names(args.trace)
    build()

    out = os.path.join(BUILD, "last", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        cmd += [f"--trace={os.path.join(out, 'trace.json')}", "--ledger"]
    budget = max(10.0, RUN_BUDGET_S - (time.monotonic() - started))
    # Its own process group: asset_bench forks one process per trial, and
    # a timeout must stop all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"asset_bench did not finish within {budget:.0f} s")
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(stdout)
    sys.stdout.write(stdout)

    result_path = os.path.join(out, f"{args.workload}.json")
    if not os.path.exists(result_path):
        die(f"asset_bench exited {proc.returncode} without a result")
    with open(result_path) as f:
        result = json.load(f)
    reported = result.get("per_layer" if args.trace else "metrics", {})
    metrics = {}
    for m in names:
        if m["name"] not in reported:
            die(f"result lacks metric {m['name']}")
        got = reported[m["name"]]
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
