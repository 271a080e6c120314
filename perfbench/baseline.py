#!/usr/bin/env python3
"""Run every workload on several seeds and report medians and spreads.

Run from the repository root:

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 44] [--out perfbench/baseline.json]
                                  [workload ...]

Each seed is one untraced run; the spread of a metric is the distance
between the first and third quartile of its values over the seeds, as a
share of their median. One traced run per workload follows (on the first
seed). Each run's wall time, as seen from this script, is kept as
``wall_s``. With ``--out`` the runs are written as JSON, so a later change can
be compared against this commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["env"] = next(line for line in lines if line.startswith("env: "))[5:]
    result["reasons"] = [line[8:] for line in lines if line.startswith("reason: ")]
    return result


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    report = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run(name, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output ({result['failed']} failed)")
            runs.append({"seed": seed, **result})
        summary = {}
        for metric in BENCHMARK["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                       "bound": metric["bound"]}
            print(f"{name:<14} {metric['name']:<12} median {median:12.6f} {metric['unit']:<3} "
                  f"spread {(q3 - q1) / median:6.3f} (bound {metric['bound']})", flush=True)
        walls = [r["wall_s"] for r in runs]
        print(f"{name:<14} run wall time {min(walls):.1f}-{max(walls):.1f} s", flush=True)
        report[name] = {"summary": summary, "runs": runs,
                        "traced": run(name, args.seeds[0], args.seconds, 1)}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
