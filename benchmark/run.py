#!/usr/bin/env python3
"""Builds the bench program (Release) and runs its workloads.

One workload, the form for automation (the last stdout line is the
result as JSON; --trace 1 reports the per-layer metrics instead of the
end-to-end ones):

    benchmark/run.sh --workload inproc_fresh --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, printing every metric with its
unit and checking outputs (exit status 1 if any output or validity check
failed):

    benchmark/run.sh [--seed N] [--seconds S] [--traced] [--repeat N] [--out DIR]

--repeat N runs each workload N times, on seeds --seed .. --seed+N-1, and
prints each metric's median, interquartile range and max-min. Result files
land in --out (default .bench_build/results) for benchmark/compare.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "snorkel_bench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds snorkel_bench; False when either step fails."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "--target", "snorkel_bench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(spec, workload, seed, seconds, traced):
    """Runs one workload in its own process; returns its result dict."""
    work = os.path.join(BUILD, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", out, "--workdir", work]
    if traced:
        cmd.append("--traced")
    started = time.time()
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
        if code != 0:
            raise RuntimeError(f"{workload}: snorkel_bench exited with {code}")
        with open(out) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["stamp"]["git_commit"] = git_commit()
    result["started_unix"] = started
    result["correct"] = result["failed"] == 0 and all(
        v["ok"] for v in result["validity"] if v["hard"])
    check_names(spec, result)
    return result


def check_names(spec, result):
    """Every metric snorkel_bench emits must be declared, with the same unit."""
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in result["metrics"].items():
        if declared.get(name) != metric["unit"]:
            raise RuntimeError(
                f"metric {name} [{metric['unit']}] is not in BENCHMARK.json")


def selected(spec, result, traced):
    """The declared metrics of one mode. A per-layer metric whose layer is
    not on this workload's path reads 0."""
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        value = result["metrics"].get(m["name"], {"value": 0})["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def print_result(spec, result, traced):
    metrics = selected(spec, result, traced)
    print(f"== {result['workload']} (seed {result['seed']}"
          f"{', traced' if traced else ''}): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in metrics.items():
        missing = "" if name in result["metrics"] else "   (not on this path)"
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{missing}")
    for v in result["validity"]:
        if not v["ok"]:
            kind = "FAILED" if v["hard"] else "warning"
            print(f"  validity {kind}: {v['name']} = {v['detail']}")


def summarize(spec, results, traced):
    """Per workload and metric: median, interquartile range, max - min."""
    print("\nSpread over repeats (median | IQR | IQR/median | max-min):")
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload]
        print(f"  {workload} ({len(runs)} runs)")
        for name, m in selected(spec, runs[0], traced).items():
            values = [selected(spec, r, traced)[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            print(f"    {name:32s} {med:>14.6g} | {q3 - q1:>12.6g} | "
                  f"{share:>7.2%} | {max(values) - min(values):>12.6g} "
                  f"{m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(BUILD, "results"))
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    traced = bool(args.trace) or args.traced
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload}; one of {names}")
        return 2
    if not build():
        log("build failed")
        return 2

    if args.workload is not None:
        result = run_workload(spec, args.workload, args.seed, seconds, traced)
        print_result(spec, result, traced)
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": selected(spec, result, traced)}))
        return 0 if result["correct"] else 1

    os.makedirs(args.out, exist_ok=True)
    results = []
    for workload in names:
        for i in range(args.repeat):
            seed = args.seed + i
            result = run_workload(spec, workload, seed, seconds, traced)
            print_result(spec, result, traced)
            results.append(result)
            tag = "traced" if traced else "e2e"
            path = os.path.join(args.out, f"{workload}-{tag}-seed{seed}.json")
            with open(path, "w") as f:
                json.dump(result, f, indent=1)
    if args.repeat > 1:
        summarize(spec, results, traced)
    bad = [f"{r['workload']}/seed {r['seed']}"
           for r in results if not r["correct"]]
    print(f"\nresults in {args.out}; "
          + (f"INCORRECT: {', '.join(bad)}" if bad else "all runs correct"))
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as error:
        log(f"benchmark failed: {error}")
        sys.exit(2)
