#!/usr/bin/env python3
"""Shows that every correctness gate of the benchmark can fail.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seconds 3]

For each gate it plants one fault with ``--inject`` and requires the run
to exit nonzero with ``"correct": false``:

- ``interactive`` with ``wrong-value`` (one entity's true values corrupted),
- ``stream`` with ``drop-entity`` (one resolved entity lost in the sink),
- ``serve`` with ``lost-ack`` (the reply to one mutation never reaches its
  client, so the log holds a mutation nobody saw acknowledged).

It also requires a clean short run of each workload to pass with no failed
operation, and the benchmark to exit nonzero without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files. A gate
that cannot fail must not pass.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FAULTS = [("interactive", "wrong-value"), ("stream", "drop-entity"), ("serve", "lost-ack")]


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="3")
    args = ap.parse_args()
    ok = True

    for workload, fault in FAULTS:
        base = ["--workload", workload, "--seed", "11", "--seconds", args.seconds, "--trace", "0"]
        code, result, _ = run(base)
        clean = code == 0 and result is not None and result["correct"] and result["failed"] == 0
        print(f"{workload:12s} clean             exit {code}  {'pass' if clean else 'FAIL'}")
        ok &= clean
        code, result, err = run(base + ["--inject", fault])
        tripped = code != 0 and result is not None and not result["correct"] and result["failed"] > 0
        why = next((l for l in err.splitlines() if "WRONG" in l), "")
        print(f"{workload:12s} --inject {fault:12s} exit {code}  {'trips' if tripped else 'DID NOT TRIP'}  {why[:120]}")
        ok &= tripped

    # Without the crates beside it the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "target"))
    env_target = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        code, result, _ = run(["--workload", "interactive", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare)
    finally:
        if env_target is not None:
            os.environ["CARGO_TARGET_DIR"] = env_target
        shutil.rmtree(bare, ignore_errors=True)
    refused = code != 0 and result is None
    print(f"{'bare':12s} no crates         exit {code}  {'fails without a result' if refused else 'DID NOT FAIL'}")
    ok &= refused
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
