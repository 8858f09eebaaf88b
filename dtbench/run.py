#!/usr/bin/env python3
"""Builds the Data Tamer benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 dtbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), the run's
scratch files (WAL directories, trace files) under <build>/work. The
last line of standard output is the run's JSON result; build output and
progress go to standard error.

    python3 dtbench/run.py --self-test

builds and runs the check test instead: every correctness check is fed
one corrupted answer and must report a failed operation.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-read", "serve-ingest", "bulk-load")


def build(build_dir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs, "--target"]
    compile_ += targets
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("dtbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if args.self_test:
        if not build(build_dir, ["dtbench_checks_test"]):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "dtbench_checks_test")]).returncode

    if not build(build_dir, ["dtbench"]):
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "dtbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
