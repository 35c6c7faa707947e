#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly on one build and report,
for every end-to-end metric, its median, quartiles, spread (interquartile
distance over the median) and worst deviation from the median, against
the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S]

Each run uses its own seed (first-seed, first-seed + 1, ...). A metric is
"steady" when its spread is at most a third of its bound. setup_s is
exempt from the spread rule; its bound applies between two sets of runs.
The failed share of operations must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    opts = ap.parse_args()

    all_steady = True
    for workload in opts.workloads.split(","):
        results = [run_once(bench["command"], workload, opts.first_seed + i, opts.seconds)
                   for i in range(opts.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ops = [r["attempted"] for r in results]
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {opts.runs} runs x {opts.seconds} s, seeds "
              f"{opts.first_seed}..{opts.first_seed + opts.runs - 1}, operations "
              f"{min(ops)}..{max(ops)}, failed share {shares}, correct {correct}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'worst':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(abs(v - med) for v in vals) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            all_steady &= verdict in ("steady", "exempt")
            print(f"  {m['name']:<12} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {worst:>8.4f} {m['bound']:>6}  {verdict}")
        all_steady &= correct and len(shares) == 1
    print("\nall steady" if all_steady else "\nNOT all steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
