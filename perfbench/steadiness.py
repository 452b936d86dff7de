#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --workloads drift-write,sort-aem --seeds 1-10

Run from the repository root. Runs perfbench/run.py once per (workload,
seed), untraced, one at a time, and prints for every end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread:
(Q3 - Q1) / median. --out appends every run's result line to a file as
JSON Lines, tagged with its workload and seed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="15", help="BENCHMARK.json's run_seconds")
    ap.add_argument("--out", help="append result lines here")
    args = ap.parse_args()

    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"{wl:16s} {name:12s} n={len(vs):2d} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={(q3 - q1) / med:.4f}")


if __name__ == "__main__":
    main()
