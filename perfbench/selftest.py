#!/usr/bin/env python3
"""Self-test of the benchmark's own checks (about a minute).

    python3 perfbench/selftest.py

1. A run with a deliberately corrupted shadow copy must report
   correct=false and exit nonzero: the correctness check can fail.
2. A traced run must pass: the traced machine reproduces the service's
   virtual latencies and counters exactly, and prints every per-layer
   metric BENCHMARK.json names, each with its unit.
3. An untraced run prints every end-to-end metric BENCHMARK.json names,
   each with its unit.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "paper-hotspot"


def run(*extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
           "--seed", "7", "--seconds", "0", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def check_metrics(result, declared):
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in declared}, sorted(printed)
    for m in declared:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    code, result = run("--trace", "0", "--corrupt-shadow")
    assert code != 0, "a corrupted shadow copy must fail the run"
    assert result["correct"] is False and result["failed"] >= 1, result
    print("corrupted shadow copy: detected")

    code, result = run("--trace", "1")
    assert code == 0 and result["correct"] is True, result
    check_metrics(result, spec["per_layer"])
    print("traced run: matches the service, all per-layer metrics")

    code, result = run("--trace", "0")
    assert code == 0 and result["correct"] is True, result
    check_metrics(result, spec["end_to_end"])
    print("untraced run: all end-to-end metrics")


if __name__ == "__main__":
    main()
