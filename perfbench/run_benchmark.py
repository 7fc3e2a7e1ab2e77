#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

One run, the form BENCHMARK.json's "command" uses (the last stdout line
is the result as JSON):

    python3 perfbench/run_benchmark.py --workload hotspot-paper \\
        --seed 1 --seconds 10 --trace 0

The whole suite, every workload over several seeds, plain then traced,
printing each metric with its unit and writing one results file:

    python3 perfbench/run_benchmark.py --all --seeds 1-10 --out results.json

Check one results file against another with the bounds in BENCHMARK.json
(exit status 1 when a metric got worse by more than its bound):

    python3 perfbench/run_benchmark.py --compare A.json B.json

The measuring program is built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hotspot-paper", "zipf-tenants", "uniform-remote"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build():
    """Configures (once) and builds the measuring program; returns its
    path, or None when the build fails."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(out), "-j", jobs]
    for attempt in range(2):
        steps = [compile_]
        if not (out / "CMakeCache.txt").exists():
            steps.insert(0, configure)
        if all(subprocess.run(step, stdout=sys.stderr).returncode == 0
               for step in steps):
            return out / "horam_bench"
        if attempt == 0 and (out / "CMakeCache.txt").exists():
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(out)
    return None


def declared_metrics():
    """(end_to_end, per_layer) entries of BENCHMARK.json, or None when
    the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_once(binary, workload, seed, seconds, trace):
    """Runs the measuring program once; returns its result object, or
    None when it printed none."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} seed {seed}: exit {proc.returncode}, no result")
        return None
    result = json.loads(lines[-1])
    for problem in result.get("problems", []):
        log(f"{workload} seed {seed}: {problem}")
    if result["correct"] and proc.returncode != 0:
        result["correct"] = False
    declared = declared_metrics()
    if declared is not None:
        names = {m["name"] for m in declared[1 if trace else 0]}
        if set(result["metrics"]) != names:
            log(f"{workload}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ names)}")
            result["correct"] = False
    return result


def single(args):
    binary = build()
    if binary is None:
        return 2
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    if result is None:
        return 1
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    return 0 if result["correct"] else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarize(runs):
    """Per metric: unit, median and spread over the runs."""
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {"unit": first["unit"],
                         "median": statistics.median(values),
                         "spread": spread(values), "values": values}
    return summary


def print_summary(workload, mode, summary):
    log(f"\n{workload} ({mode})")
    for name, entry in summary.items():
        log(f"  {name:40s} {entry['median']:>16.6g} {entry['unit']:8s}"
            f" spread {entry['spread']:.4f}")


def suite(args):
    binary = build()
    if binary is None:
        return 2
    seeds = parse_seeds(args.seeds)
    results = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            mode = "trace" if trace else "plain"
            runs = []
            for seed in (seeds if not trace else seeds[:1]):
                start = time.monotonic()
                result = run_once(binary, workload, seed, args.seconds, trace)
                if result is None:
                    ok = False
                    continue
                result["seed"] = seed
                result["elapsed_s"] = time.monotonic() - start
                ok = ok and result["correct"]
                runs.append(result)
            if runs:
                entry[mode] = {"runs": runs, "summary": summarize(runs)}
                print_summary(workload, mode, entry[mode]["summary"])
        results["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


def compare(args):
    declared = declared_metrics()
    if declared is None:
        log("BENCHMARK.json not found")
        return 2
    bounds = {m["name"]: m for m in declared[0]}
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    ok = True
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("plain")
        if "plain" not in entry or other is None:
            log(f"{workload}: missing from one side")
            ok = False
            continue
        for side in (entry["plain"], other):
            if not all(run["correct"] for run in side["runs"]):
                log(f"{workload}: a run was incorrect")
                ok = False
        log(f"\n{workload}")
        for name, spec in bounds.items():
            old = entry["plain"]["summary"][name]["median"]
            new = other["summary"][name]["median"]
            change = (new - old) / old if old else 0.0
            worse = change if spec["better"] == "lower" else -change
            spreads = (entry["plain"]["summary"][name]["spread"],
                       other["summary"][name]["spread"])
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = "WORSE"
                ok = False
            log(f"  {name:30s} {old:>14.6g} -> {new:<14.6g} {spec['unit']:6s}"
                f" {change:+.4f} (bound {spec['bound']}, spreads"
                f" {spreads[0]:.4f}/{spreads[1]:.4f}) {verdict}")
    return 0 if ok else 1


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the measuring program instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload")
    parser.add_argument("--seeds", default="2019",
                        help="with --all: e.g. 1-10 or 1,5,9")
    parser.add_argument("--out", help="with --all: results file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.all:
        return suite(args)
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
