#!/usr/bin/env python3
"""Builds and runs the closed-loop benchmark of the sealed H-ORAM service.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library sources under src/ together with perfbench.cpp into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. The binary's standard output is passed through; its
last line is the JSON result, and the exit code is the binary's. With
--trace 1 the Chrome trace-event file lands in .bench_out/.

--corrupt-shadow deliberately corrupts the benchmark's shadow copy so the
correctness check must fail (see selftest.py).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "horam.h").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-shadow", action="store_true")
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    if args.corrupt_shadow:
        cmd.append("--corrupt-shadow")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"perfbench printed no result (exit code {done.returncode})")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
