#!/usr/bin/env python3
"""CI gate for bench regressions: per-request costs vs baselines.

Compares freshly produced BENCH_*.json documents (the bench-smoke job's
``--small`` runs) against the committed baselines in bench/baselines/.
The gated metrics, computed uniformly from the fields every bench
emits via json_fields():

    (device_read_ops + device_write_ops) / requests
    total_time_ns / requests       (virtual time per request)
    latency_p99_ns                 (virtual request-latency tail)

and, where a run emits it, the online ``round_trips_per_request``
field (dependency-aware storage exchanges per request) under the same
tolerance band — a backend quietly growing an extra dependent hop per
request is exactly the regression the hier backend exists to avoid.
The two virtual-time metrics catch a change that keeps the operation
count but makes each operation, or the shuffle burst behind the tail,
slower on the simulated clock.

The simulator is deterministic, so the committed numbers are exactly
reproducible on any host; the tolerance band exists to absorb benign
run-matrix drift (e.g. a bench growing an extra warm-up round), not
noise. A fresh value above baseline * (1 + tolerance) fails the gate; a
value below baseline / (1 + tolerance) passes with a note suggesting
the baseline be refreshed so improvements are locked in.

Runs are matched between the two documents by bench-specific identity
keys (backend, profile, geometry knobs, ...). A baseline run with no
fresh counterpart fails loudly — losing a row is how a silent coverage
regression would slip through.

Usage:
    check_bench_regression.py --baseline-dir bench/baselines \
        --fresh-dir build-release [--tolerance 0.10]

Every BENCH_*.json present in the baseline directory is gated; extra
fresh documents without baselines are ignored (new benches get a
baseline when their numbers are committed).
"""

import argparse
import json
import pathlib
import sys

# Identity keys per bench document (the "bench" field). Only keys that
# are stable run labels belong here — derived quantities (measured
# slice budgets, throughputs) must not, or rows would never match.
IDENTITY_KEYS = {
    "ablation_ring": (
        "storage_profile",
        "backend",
        "ring_z",
        "ring_s",
        "ring_a",
        "ring_xor",
    ),
    "ablation_page_layout": ("storage_profile", "backend", "layout"),
    "ablation_shards": ("backend", "shards"),
    "ablation_backends": ("backend",),
    "ablation_coalesce": ("workload", "backend", "shards", "coalescing"),
    "ablation_threads": ("backend", "shards", "requested_threads"),
    "ablation_shuffle_overlap": (
        "backend",
        "shards",
        "policy",
        "slice_rung",
    ),
    "ablation_round_trips": ("storage_profile", "backend"),
}


def identity(bench, run):
    keys = IDENTITY_KEYS.get(bench)
    if keys is None:
        # Unknown bench: every string/bool field is a label. Numeric
        # fields are assumed to be metrics and left out.
        keys = sorted(
            k for k, v in run.items() if isinstance(v, (str, bool))
        )
    return tuple((k, run.get(k)) for k in keys)


def ops_per_request(run):
    requests = run.get("requests", 0)
    if not requests:
        return None
    ops = run.get("device_read_ops", 0) + run.get("device_write_ops", 0)
    return ops / requests


def round_trips_per_request(run):
    # Gated only when the run emits it (older baselines predate the
    # counter); requests==0 rows gate nothing, like ops_per_request.
    value = run.get("round_trips_per_request")
    if value is None or not run.get("requests", 0):
        return None
    return float(value)


def virtual_ns_per_request(run):
    requests = run.get("requests", 0)
    total = run.get("total_time_ns")
    if total is None or not requests:
        return None
    return total / requests


def latency_p99_ns(run):
    value = run.get("latency_p99_ns")
    if value is None or not run.get("requests", 0):
        return None
    return float(value)


# Gated metrics: (label, extractor). An extractor returning None for
# either side of a row skips that metric for that row.
METRICS = (
    ("device ops/request", ops_per_request),
    ("round trips/request", round_trips_per_request),
    ("virtual ns/request", virtual_ns_per_request),
    ("virtual p99 latency ns", latency_p99_ns),
)


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    bench = document.get("bench", path.stem)
    runs = {}
    for run in document.get("runs", []):
        key = identity(bench, run)
        if key in runs:
            raise SystemExit(
                f"{path}: duplicate run identity {key} — the identity "
                f"keys for bench '{bench}' are incomplete"
            )
        runs[key] = run
    return bench, runs


def label(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir",
        required=True,
        type=pathlib.Path,
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        required=True,
        type=pathlib.Path,
        help="directory holding the freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional increase over baseline (default 0.10)",
    )
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        raise SystemExit(
            f"no BENCH_*.json baselines under {args.baseline_dir}"
        )

    failures = []
    improvements = []
    compared = 0
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            failures.append(
                f"{baseline_path.name}: no fresh document at {fresh_path}"
            )
            continue
        bench, baseline_runs = load_runs(baseline_path)
        fresh_bench, fresh_runs = load_runs(fresh_path)
        if bench != fresh_bench:
            failures.append(
                f"{baseline_path.name}: bench name changed "
                f"('{bench}' -> '{fresh_bench}')"
            )
            continue
        for key, baseline_run in baseline_runs.items():
            if ops_per_request(baseline_run) is None:
                continue  # a baseline row with no requests gates nothing
            fresh_run = fresh_runs.get(key)
            if fresh_run is None:
                failures.append(
                    f"{bench} [{label(key)}]: run missing from fresh "
                    f"document"
                )
                continue
            if ops_per_request(fresh_run) is None:
                failures.append(
                    f"{bench} [{label(key)}]: fresh run has no requests"
                )
                continue
            for metric_label, extract in METRICS:
                baseline_value = extract(baseline_run)
                fresh_value = extract(fresh_run)
                if baseline_value is None or fresh_value is None:
                    continue
                compared += 1
                ceiling = baseline_value * (1.0 + args.tolerance)
                floor = baseline_value / (1.0 + args.tolerance)
                if fresh_value > ceiling:
                    failures.append(
                        f"{bench} [{label(key)}]: {metric_label} "
                        f"{fresh_value:.3f} exceeds baseline "
                        f"{baseline_value:.3f} (+{args.tolerance:.0%} "
                        f"ceiling {ceiling:.3f})"
                    )
                elif fresh_value < floor:
                    improvements.append(
                        f"{bench} [{label(key)}]: {metric_label} "
                        f"improved {baseline_value:.3f} -> "
                        f"{fresh_value:.3f}; refresh the baseline to "
                        f"lock it in"
                    )

    for note in improvements:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(
        f"bench regression gate: {compared} metric comparison(s) "
        f"within +{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
