#!/usr/bin/env python3
"""Builds and runs the paper-path benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ba_snapshot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

The first run configures and builds the library and the benchmark under
.bench_build/perfbench (build output goes to stderr); later runs rebuild
incrementally. The benchmark's standard output is passed through; its last
line is the JSON result. Exits non-zero, without a result line, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ba_snapshot", "pua_chain", "mpa_replay")
# A run times at most 3 x --seconds of iterations; on top come its
# set-ups, probes and start-up.
RUN_TIMEOUT_SLACK_S = 80


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # The Chrome-trace JSON of the traced phase.
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=3 * args.seconds + RUN_TIMEOUT_SLACK_S)
    except subprocess.TimeoutExpired as error:
        sys.stdout.write(error.stdout or "")
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if run.returncode != 0 or result is None:
        # Keep the human-readable output, but never a result line.
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
