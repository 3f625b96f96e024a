#!/usr/bin/env python3
"""Smoke test: every workload for one second, traced, with the ledger.

    python3 bench/e2e/smoke.py <path to asset_bench> <scratch dir>

Fails unless asset_bench exits 0 (every correctness check passed), each
workload's result carries every end-to-end and per-layer metric that
BENCHMARK.json names, and each workload committed more than it failed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, out = sys.argv[1], sys.argv[2]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    with open(SPEC) as f:
        spec = json.load(f)
    proc = subprocess.run(
        [binary, "--workload=all", "--seconds=1", f"--out={out}",
         f"--trace={os.path.join(out, 'trace.json')}", "--ledger"],
        timeout=280)
    problems = []
    if proc.returncode != 0:
        problems.append(f"asset_bench exited {proc.returncode}")
    for w in spec["workloads"]:
        path = os.path.join(out, f"{w['name']}.json")
        if not os.path.exists(path):
            problems.append(f"{w['name']}: no result")
            continue
        with open(path) as f:
            r = json.load(f)
        for section, key in (("end_to_end", "metrics"),
                             ("per_layer", "per_layer")):
            for m in spec[section]:
                if m["name"] not in r.get(key, {}):
                    problems.append(f"{w['name']}: missing {m['name']}")
        if not r["correct"]:
            problems.append(f"{w['name']}: {r['problems']}")
        if r["metrics"]["failed_frac"]["value"] >= 1:
            problems.append(f"{w['name']}: failed_frac >= 1")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
