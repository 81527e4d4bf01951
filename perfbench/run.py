#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload agg-10k --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/ in the checkout. The last line of
standard output is the JSON result; the exit code is 0 only when the
benchmark ran and every output check passed. A traced run (--trace 1)
also writes its spans to .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("agg-10k", "mlq-replan", "sketch-churn")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout holding the program's sources")
    # The dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        timeout=850,
    )
    if build.returncode != 0:
        fail("build failed")
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result")
    if run.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
