#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs each workload on several seeds
and reports, per end-to-end metric, the spread between the first and
third quartile as a share of the median, against the metric's bound in
``BENCHMARK.json``.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 100]
                                [--out results.json] [--compare earlier.json]

``--compare`` also checks that no median is worse than the one in an
earlier results file by more than the metric's bound. The exit code is 1
if a spread exceeds its bound, or if a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    results = {}
    ok = True
    for w in workloads:
        values = {name: [] for name in metrics}
        for i in range(args.runs):
            got, wall = run_once(spec, w, args.first_seed + i)
            for name in metrics:
                values[name].append(got[name])
            print(f"  {w} seed {args.first_seed + i}: {wall:.1f}s", file=sys.stderr)
        results[w] = values
        print(f"{w}:")
        for name, m in metrics.items():
            s, med = spread(values[name])
            flag = ""
            if s > m["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif s > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            line = f"  {name:22s} median {med:<14.6g} spread {s:7.4f}  bound {m['bound']}{flag}"
            if earlier is not None and w in earlier:
                before = statistics.median(earlier[w][name])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                line += f"  vs earlier {worse:+.4f}"
                if worse > m["bound"]:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
