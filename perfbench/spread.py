#!/usr/bin/env python3
"""Run-to-run statistics of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per (workload, seed), one run at a time, and
reports for every end-to-end metric of BENCHMARK.json its median and
quartiles over the runs, as statistics.quantiles(values, n=4) gives
them, and the spread (q3 - q1) / median against the metric's bound.
Given an earlier --out file as --baseline, it also reports how far each
median moved from that one, in the bound's direction of "worse".

    python3 perfbench/spread.py --seeds 1-10 --out runs.json
    python3 perfbench/spread.py --seeds 11-20 --baseline runs.json

Every run must pass its correctness checks; a failed run is reported
and ends the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    ap.add_argument("--baseline", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    # Seed-major order: each workload's runs spread over the whole
    # session, so a slow spell of the host does not land on one
    # workload's runs alone.
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    ok = True
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
            lines = done.stdout.decode().strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print("FAILED: %s seed %d (exit %d)" % (w, seed, done.returncode))
                ok = False
                continue
            runs[w].append({k: v["value"] for k, v in result["metrics"].items()})
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % kv for kv in sorted(runs[w][-1].items()))), flush=True)

    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
    print("\n%-14s %-14s %4s %12s %12s %12s %8s %8s %8s" %
          ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "drift"))
    for w, rs in runs.items():
        if len(rs) < 2:
            continue
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            drift = ""
            if base and len(base.get(w, [])) >= 2:
                old = statistics.median(r[m["name"]] for r in base[w])
                worse = (med - old) if m["better"] == "lower" else (old - med)
                drift = "%+.4f" % (worse / old if old else float("inf"))
            print("%-14s %-14s %4d %12.6g %12.6g %12.6g %8.4f %8.3f %8s" %
                  (w, m["name"], len(vals), q1, med, q3, spread, m["bound"], drift))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
