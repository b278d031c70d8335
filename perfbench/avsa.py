#!/usr/bin/env python3
"""A-vs-A self-test of the benchmark: run the same build twice and check
that the two sets of runs agree within the bounds BENCHMARK.json fixes.

Usage, from the repository root:

    python3 perfbench/avsa.py --runs 10 --sets 2
    python3 perfbench/avsa.py --runs 5 --sets 1 --workloads overlay

Each set runs every workload --runs times, each run with its own seed.
For every end-to-end metric it prints each set's median and the spread
of the set (distance between first and third quartile, as a share of
the median). It fails if a spread other than setup_s exceeds the
metric's bound, or if a later set's median is worse than the first
set's by more than the bound. --strict divides every bound by three,
the margin a benchmark should keep before it is relied on.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"  {workload} seed {seed}: correct=false", file=sys.stderr)
    return res


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--strict", action="store_true")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    scale = 3 if a.strict else 1

    ok = True
    seed = a.first_seed
    for name in names:
        sets = []
        for s in range(a.sets):
            vals = {m["name"]: [] for m in metrics}
            for _ in range(a.runs):
                res = run_once(bench["command"], name, seed, seconds, 0)
                seed += 1
                for m in metrics:
                    vals[m["name"]].append(res["metrics"][m["name"]]["value"])
                vals_line = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"  {name} seed {seed - 1}: attempted {res['attempted']} failed {res['failed']} {vals_line}",
                      file=sys.stderr)
            sets.append(vals)
        print(f"{name}:")
        for m in metrics:
            bound = m["bound"] / scale
            line = f"  {m['name']:<26}"
            for i, vals in enumerate(sets):
                med = statistics.median(vals[m["name"]])
                sp = spread(vals[m["name"]]) if len(vals[m["name"]]) > 1 else 0.0
                line += f" set{i + 1} median {med:12.4f} spread {sp:6.3f}"
                if m["name"] != "setup_s" and sp > bound:
                    ok = False
                    line += " SPREAD>BOUND"
                if i > 0:
                    first = statistics.median(sets[0][m["name"]])
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        ok = False
                        line += " DRIFT>BOUND"
            print(line + f"  (bound {bound:.3f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
