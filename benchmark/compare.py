#!/usr/bin/env python3
"""Compares two sets of untraced benchmark results, parent against change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files `benchmark/run.sh --repeat N --out DIR`
writes. Runs are paired by seed. For every workload and end-to-end metric
of BENCHMARK.json the verdict is, in this order:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound;
  unchanged   otherwise.

failed_frac is compared too: any increase is a regression. When every run
of one set started before every run of the other, host drift between the
sets is not cancelled and a warning says so: alternate parent and change
runs, seed by seed, as benchmark/README.md shows. Exit status: 0
when nothing regressed, 1 on a regression, 2 when the sets cannot be
compared (different core count, kernel ISA or build type).
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "isa", "build_type")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-e2e-*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare_metric(metric, parent, change):
    """parent/change: values paired by index. Returns (verdict, row text)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    win_frac = wins / len(parent)
    better = c_med < p_med if lower else c_med > p_med
    worse_share = ((c_med - p_med) if lower else (p_med - c_med)) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med if c_med else 0)
    if better and win_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        verdict = "improved"
    elif worse_share > bound:
        verdict = "regressed"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    row = (f"    {metric['name']:15s} parent {p_med:12.5g} [{p_q1:.5g}, "
           f"{p_q3:.5g}]  change {c_med:12.5g} [{c_q1:.5g}, {c_q3:.5g}] "
           f"{metric['unit']:7s} {-worse_share:+7.2%}  wins {wins}/"
           f"{len(parent)}  bound {bound:.0%}  {verdict}")
    return verdict, row


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent_runs, change_runs = load(argv[1]), load(argv[2])
    if not parent_runs or not change_runs:
        print("no result files to compare", file=sys.stderr)
        return 2
    machines = {tuple(r["stamp"][k] for k in MACHINE_KEYS)
                for r in parent_runs + change_runs}
    if len(machines) != 1:
        print(f"refusing to compare results from different machines or "
              f"builds {MACHINE_KEYS}: {sorted(machines)}", file=sys.stderr)
        return 2

    parent_start = [r.get("started_unix", 0) for r in parent_runs]
    change_start = [r.get("started_unix", 0) for r in change_runs]
    if max(parent_start) < min(change_start) or \
            max(change_start) < min(parent_start):
        print("warning: the two sets ran one after the other, not "
              "alternately; host drift between them shows up as a change\n")

    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = {r["seed"]: r for r in parent_runs if r["workload"] == workload}
        change = {r["seed"]: r for r in change_runs if r["workload"] == workload}
        seeds = sorted(set(parent) & set(change))
        if not seeds:
            print(f"{workload}: no runs on a common seed")
            continue
        rows, verdicts = [], []
        for metric in spec["end_to_end"]:
            values = lambda side: [side[s]["metrics"][metric["name"]]["value"]
                                   for s in seeds]
            verdict, row = compare_metric(metric, values(parent), values(change))
            verdicts.append(verdict)
            rows.append(row)
        p_fail = failed_frac([parent[s] for s in seeds])
        c_fail = failed_frac([change[s] for s in seeds])
        fail_verdict = "regressed" if c_fail > p_fail else "unchanged"
        verdicts.append(fail_verdict)
        rows.append(f"    {'failed_frac':15s} parent {p_fail:.6g}  change "
                    f"{c_fail:.6g}  {fail_verdict}")
        worst = next((v for v in ("regressed", "unresolved", "improved")
                      if v in verdicts), "unchanged")
        regressed = regressed or worst == "regressed"
        print(f"{workload} ({len(seeds)} pairs): {worst}")
        print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
