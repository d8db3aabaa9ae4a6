#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <interactive|stream|serve> \
        --seed <n> --seconds <s> --trace <0|1> [--inject <fault>]

The benchmark is a Cargo package of its own (``perfbench/Cargo.toml``)
with path dependencies on the crates under ``crates/``. It is built in
release mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), and the
binary's standard output, whose last line is the JSON result, is passed
through unchanged. Without the crates beside it the build fails, and this
script exits with a nonzero code without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run measures for at most a minute; set-up and checks come on top.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
