#!/usr/bin/env python3
"""CI gate for bench regressions: device ops per request vs baselines.

Compares freshly produced BENCH_*.json documents (the bench-smoke job's
``--small`` runs) against the committed baselines in bench/baselines/.
The gated metric is storage-device operations per logical request,
computed uniformly from the fields every bench emits via json_fields():

    (device_read_ops + device_write_ops) / requests

and device bytes per request, gated where both documents emit the two
byte counters (a return to whole-bucket ring reads moves bytes, not
ops):

    (device_read_bytes + device_write_bytes) / requests

and, where a run emits it, the online ``round_trips_per_request``
field (dependency-aware storage exchanges per request) under the same
tolerance band — a backend quietly growing an extra dependent hop per
request is exactly the regression the hier backend exists to avoid.
Likewise ``memory_ops_per_request`` (memory-device reads plus writes
per request, summed over the shard lanes: the cache trees' bus bill),
gated where both documents emit it. And ``trusted_bytes``, the trusted
control-layer bytes at the end of the run (client-side state a
backend's bookkeeping costs), under the same band.

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

With ``--report-moved`` the script gates nothing: for every matched run
it prints each numeric field whose fresh value differs from the
baseline, then a total "N of M fields moved". Host-timed fields
(``host_*``, ``wall_*``) are left out, since they differ on every run.
A change that should move nothing reports 0 moved. Numeric fields only
the fresh run emits are listed as new and counted apart, so a new
column shows up without counting as a move. Likewise every fresh run
whose document has a baseline but which no baseline run matches is
listed and counted in the totals line, so a row added to a bench shows
up rather than passing without mention. The report ends with a per-field
tally of the moved rows, e.g. "trusted_bytes: 12 rows; every other
field: 0", so a change meant to move one field is checked from one line.
"""

import argparse
import collections
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
        "budget_rung",
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


def bytes_per_request(run):
    requests = run.get("requests", 0)
    read = run.get("device_read_bytes")
    written = run.get("device_write_bytes")
    if not requests or read is None or written is None:
        return None
    return (read + written) / requests


def emitted(field):
    """Extractor for a per-request field a run may emit: gated only when
    the run emits it (older baselines predate the counter);
    requests==0 rows gate nothing, like ops_per_request."""

    def extract(run):
        value = run.get(field)
        if value is None or not run.get("requests", 0):
            return None
        return float(value)

    return extract


# Gated metrics: (label, extractor). An extractor returning None for
# either side of a row skips that metric for that row.
METRICS = (
    ("device ops/request", ops_per_request),
    ("device bytes/request", bytes_per_request),
    ("round trips/request", emitted("round_trips_per_request")),
    ("memory ops/request", emitted("memory_ops_per_request")),
    ("trusted bytes", emitted("trusted_bytes")),
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


# Fields timed on the host (wall clock or CPU time, and ratios of them):
# they move on every run, so --report-moved leaves them out.
HOST_TIMED_PREFIXES = ("host_", "wall_")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def matched_runs(baseline_dir, fresh_dir, problems, fresh_only=None):
    """Yields (bench, key, baseline_run, fresh_run) for every baseline
    run with a fresh counterpart; appends a message to `problems` for
    every document or run that has none, and (bench, key) to
    `fresh_only`, when given, for every fresh run of a baselined
    document that has no baseline counterpart."""
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        raise SystemExit(f"no BENCH_*.json baselines under {baseline_dir}")
    for baseline_path in baselines:
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.exists():
            problems.append(
                f"{baseline_path.name}: no fresh document at {fresh_path}"
            )
            continue
        bench, baseline_runs = load_runs(baseline_path)
        fresh_bench, fresh_runs = load_runs(fresh_path)
        if bench != fresh_bench:
            problems.append(
                f"{baseline_path.name}: bench name changed "
                f"('{bench}' -> '{fresh_bench}')"
            )
            continue
        if fresh_only is not None:
            fresh_only.extend(
                (bench, key) for key in fresh_runs if key not in baseline_runs
            )
        for key, baseline_run in baseline_runs.items():
            if ops_per_request(baseline_run) is None:
                continue  # a baseline row with no requests gates nothing
            fresh_run = fresh_runs.get(key)
            if fresh_run is None:
                problems.append(
                    f"{bench} [{label(key)}]: run missing from fresh "
                    f"document"
                )
                continue
            yield bench, key, baseline_run, fresh_run


def report_moved(baseline_dir, fresh_dir):
    problems = []
    fresh_only = []
    moved = collections.Counter()
    compared = 0
    added = 0
    for bench, key, baseline_run, fresh_run in matched_runs(
        baseline_dir, fresh_dir, problems, fresh_only
    ):
        for field, fresh_value in fresh_run.items():
            if field not in baseline_run and is_number(fresh_value):
                added += 1
                print(f"{bench} [{label(key)}]: new {field} {fresh_value}")
        for field, baseline_value in baseline_run.items():
            fresh_value = fresh_run.get(field)
            if (
                field.startswith(HOST_TIMED_PREFIXES)
                or not is_number(baseline_value)
                or not is_number(fresh_value)
            ):
                continue
            compared += 1
            if fresh_value != baseline_value:
                moved[field] += 1
                print(
                    f"{bench} [{label(key)}]: {field} "
                    f"{baseline_value} -> {fresh_value}"
                )
    for problem in problems:
        print(f"unmatched: {problem}")
    for bench, key in fresh_only:
        print(f"{bench} [{label(key)}]: fresh run has no baseline")
    print(
        f"{sum(moved.values())} of {compared} fields moved, {added} new, "
        f"{len(fresh_only)} fresh run(s) without baseline"
    )
    print(tally(moved))
    return 0


def tally(moved):
    """One line naming every moved field with its count of moved rows,
    most first, then the zero for every field not named."""
    ranked = sorted(moved.items(), key=lambda item: (-item[1], item[0]))
    named = [f"{field}: {rows} row{'s' if rows != 1 else ''}"
             for field, rows in ranked]
    return "; ".join(named + [
        f"every {'other ' if named else ''}field: 0"
    ])


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
    parser.add_argument(
        "--report-moved",
        action="store_true",
        help="gate nothing; list every numeric field that differs from "
        "its baseline (host-timed fields left out)",
    )
    args = parser.parse_args()
    if args.report_moved:
        return report_moved(args.baseline_dir, args.fresh_dir)

    failures = []
    improvements = []
    compared = 0
    for bench, key, baseline_run, fresh_run in matched_runs(
        args.baseline_dir, args.fresh_dir, failures
    ):
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
