#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls rebuild only what
changed. The reference evaluator's own test runs before every benchmark
run. Build output goes to standard error; the last line of standard output
is the benchmark's JSON result. Exits non-zero without a result when the
build, the test or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout=None):
    """Runs cmd with its output sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "lqo_perfbench", "perfbench_test"]) == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    os.chdir(ROOT)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_quiet([os.path.join(BUILD, "perfbench_test")], timeout=60) != 0:
        print("perfbench: reference evaluator test failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "lqo_perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
