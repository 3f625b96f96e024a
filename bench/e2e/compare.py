#!/usr/bin/env python3
"""Judges a change against its parent with the benchmark's own rule.

Two steps:

  # Alternate parent and change runs (the side that runs first flips
  # every pair), one result file per run and side.
  python3 bench/e2e/compare.py run --parent <checkout> --change <checkout> \\
      --out <dir> [--pairs 10] [--seconds 20] [--first-seed 1] [workload ...]

  # Apply the rule to two result directories.
  python3 bench/e2e/compare.py compare <dir>/parent <dir>/change

A result file is any JSON object with "workload", "seed" and "metrics"
keys: what `run` writes, or asset_bench's own <workload>.json. Runs pair
by (workload, seed). Every end-to-end metric of BENCHMARK.json is judged
on each workload against its bound, capped at 10 % (REPEAT_LIMIT):

  gain        the change wins >= 9/10 of the pairs (ties count for
              neither) and the medians differ, in the better direction,
              by more than the parent's interquartile range;
  unresolved  either side's interquartile range exceeds the bound, and
              not every change run beats every parent run: the metric
              cannot repeat within the bound on this workload;
  regression  the change's median is worse than the parent's by more
              than the bound;
  same        otherwise.

A change with more failed transactions (failed / attempted) or any
incorrect run is rejected. One row per workload; exit status 1 on any
regression or rejection.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
# The widest bound a verdict uses. BENCHMARK.json's timing bounds are
# wider (README.md, "Bounds"): they must hold across unpaired sets of
# runs on a host whose speed drifts by more than this. Paired runs
# judge at this limit, and a metric that cannot repeat within it on a
# workload is unresolved there rather than judged at a wider bound.
REPEAT_LIMIT = 0.10


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_pairs(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                cmd = ["python3", os.path.join("bench", "e2e", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], text=True,
                                      stdout=subprocess.PIPE)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"compare.py: {side} {workload} seed {seed} "
                             f"failed (exit {proc.returncode})")
                result = json.loads(lines[-1])
                result.update(workload=workload, seed=seed)
                path = os.path.join(args.out, side, f"{workload}-{seed}.json")
                with open(path, "w") as f:
                    json.dump(result, f)
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"{result['metrics']['throughput_txn_s']['value']:.0f}"
                      " txn/s", file=sys.stderr)


def load_results(directory):
    """{workload: {seed: result}}"""
    out = collections.defaultdict(dict)
    for path in glob.glob(os.path.join(directory, "**", "*.json"),
                          recursive=True):
        with open(path) as f:
            try:
                r = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(r, dict) and {"workload", "seed", "metrics"} <= r.keys():
            out[r["workload"]][r["seed"]] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(metric, parent, change):
    """Verdict and detail for one metric over paired runs."""
    higher = metric["better"] == "higher"
    bound = min(metric["bound"], REPEAT_LIMIT)

    def better(a, b):  # a reads better than b
        return a > b if higher else a < b

    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    worse = (mp - mc if higher else mc - mp) / mp if mp else 0.0
    spread = max((p3 - p1) / mp if mp else 0.0, (c3 - c1) / mc if mc else 0.0)
    all_better = min(change) > max(parent) if higher else \
        max(change) < min(parent)
    if wins >= 0.9 * len(parent) and better(mc, mp) and \
            abs(mc - mp) > p3 - p1:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "same"
    delta = (mc - mp) / mp if mp else 0.0
    detail = (f"{metric['name']}: parent {mp:.6g} [{p1:.6g}, {p3:.6g}] "
              f"change {mc:.6g} [{c1:.6g}, {c3:.6g}] {metric['unit']} "
              f"({delta:+.1%}, wins {wins}/{len(parent)}, "
              f"spread {spread:.1%}, bound {bound:.0%})")
    return verdict, delta, detail


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted \
        else 0.0


def compare(args):
    spec = load_spec()
    metrics = spec["end_to_end"]
    parent, change = load_results(args.parent), load_results(args.change)
    bad = False
    rows, details = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) &
                       set(change.get(workload, {})))
        if not seeds:
            rows.append(f"{workload:14s} no paired runs")
            continue
        pr = [parent[workload][s] for s in seeds]
        cr = [change[workload][s] for s in seeds]
        cells = []
        rejected = []
        if not all(r.get("correct", True) for r in cr):
            rejected.append("incorrect run")
        if failed_share(cr) > failed_share(pr):
            rejected.append(f"failed {failed_share(pr):.2%} -> "
                            f"{failed_share(cr):.2%}")
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in pr]
            cv = [r["metrics"][m["name"]]["value"] for r in cr]
            verdict, delta, detail = judge(m, pv, cv)
            bad = bad or verdict == "regression"
            cells.append(f"{m['name']}={verdict}({delta:+.1%})")
            details.append(f"  {workload}: {detail} -> {verdict}")
        bad = bad or bool(rejected)
        status = "REJECTED " + "; ".join(rejected) if rejected else \
            f"{len(seeds)} pairs"
        rows.append(f"{workload:14s} {status}  " + "  ".join(cells))
    print("\n".join(rows))
    print("\n".join(details))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="alternate parent and change runs")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--out", required=True, help="result directory")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=20)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("workloads", nargs="*")
    c = sub.add_parser("compare", help="apply the rule to two directories")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "run":
        run_pairs(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
