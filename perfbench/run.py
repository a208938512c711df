#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds the library and the driver into .bench_build/; later runs only
re-check the build. The driver's human-readable lines are passed through
and its JSON result is printed as the last line of standard output. Any
failure (build, set-up, a malformed result) exits non-zero without a
result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(r, dict)
        and set(r) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(r["correct"], bool)
        and isinstance(r["attempted"], int)
        and r["attempted"] >= 1
        and isinstance(r["failed"], int)
        and isinstance(r["metrics"], dict)
        and all(
            isinstance(m, dict) and set(m) == {"value", "unit"}
            for m in r["metrics"].values()
        )
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"], timeout=RUN_TIMEOUT_S).returncode
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", TRACE_DIR,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
