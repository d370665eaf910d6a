#!/usr/bin/env bash
# Benchmark trajectory: runs the perf microbenchmarks and the serving
# benchmark, then writes one machine-readable JSON file mapping benchmark
# name -> wall time / throughput, so future PRs can diff against the
# committed BENCH_*.json files and catch regressions.
#
# Usage: scripts/bench.sh [output.json]
#   BUILD_DIR=build         build directory (configured + built if missing)
#   BENCH_MIN_TIME=0.15     google-benchmark --benchmark_min_time seconds
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.15}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
      --target bench_serve_throughput bench_net_loopback > /dev/null
if ! cmake --build "${BUILD_DIR}" -j "$(nproc)" \
      --target bench_perf_microbench > /dev/null 2>&1; then
  echo "google-benchmark not available; perf_microbench skipped" >&2
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

MICRO_JSON="${TMP_DIR}/micro.json"
if [[ -x "${BUILD_DIR}/bench_perf_microbench" ]]; then
  # Benchmark >= 1.8 wants a unit suffix on min_time; older versions reject
  # it. Try the bare form first.
  "${BUILD_DIR}/bench_perf_microbench" \
      --benchmark_min_time="${MIN_TIME}" \
      --benchmark_out="${MICRO_JSON}" --benchmark_out_format=json \
      > /dev/null 2>&1 ||
  "${BUILD_DIR}/bench_perf_microbench" \
      --benchmark_min_time="${MIN_TIME}s" \
      --benchmark_out="${MICRO_JSON}" --benchmark_out_format=json \
      > /dev/null
fi

SERVE_JSON="${TMP_DIR}/serve.json"
"${BUILD_DIR}/bench_serve_throughput" --json "${SERVE_JSON}" > /dev/null

NET_JSON="${TMP_DIR}/net.json"
"${BUILD_DIR}/bench_net_loopback" --json "${NET_JSON}" > /dev/null

python3 - "$OUT" "$SERVE_JSON" "$MICRO_JSON" "$NET_JSON" << 'EOF'
import json
import sys

out_path, serve_path, micro_path, net_path = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4])

result = {"microbench_ms": {}, "serve": {}, "net": {}}

try:
    with open(micro_path) as f:
        micro = json.load(f)
    for bench in micro.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # google-benchmark reports real_time in the configured time_unit.
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
        result["microbench_ms"][bench["name"]] = round(
            bench["real_time"] * scale, 4)
except FileNotFoundError:
    pass

with open(serve_path) as f:
    result["serve"] = json.load(f)

# The sharded-tier section (PR 3) must be present: regressions that silently
# drop it from the serving benchmark would otherwise go unnoticed in the
# trajectory diff.
sharded = result["serve"].get("sharded")
if not sharded:
    sys.exit("serve benchmark JSON is missing the 'sharded' section")
print(
    "sharded tier: unsharded {:.0f} cand/s vs best sharded {:.0f} cand/s "
    "({} callers)".format(
        sharded["unsharded_cps"], sharded["best_sharded_cps"],
        sharded["callers"]))

# The K-class (Crowd-shaped, PR 4) section likewise: the vector-posterior
# serving path must stay on the trajectory.
kclass = result["serve"].get("kclass")
if not kclass:
    sys.exit("serve benchmark JSON is missing the 'kclass' section")
print(
    "K-class tier: K={} x {} workers, unsharded {:.0f} cand/s vs best "
    "sharded {:.0f} cand/s".format(
        kclass["cardinality"], kclass["workers"], kclass["unsharded_cps"],
        kclass["best_sharded_cps"]))

# The multi-set cache sections (PR 5): alternating-set serving must show
# near-total column reuse from the third cycle on (the second admits each
# set to the cache), and the append-only stream must be extending cached
# columns rather than recomputing.
altset = result["serve"].get("altset")
if not altset:
    sys.exit("serve benchmark JSON is missing the 'altset' section")
print(
    "alternating sets: cached {:.0f} vs cache-off {:.0f} cand/s "
    "({} callers, third-cycle reuse {:.0%})".format(
        altset["cached_cps"], altset["nocache_cps"], altset["callers"],
        altset["third_cycle_reuse"]))
# The compiled-LF section (PR 9): the Aho-Corasick batch engine must stay
# on the trajectory — a silent fall-back to interpreted execution would
# show up here as a ~1x "speedup".
lfcompile = result["serve"].get("lfcompile")
if not lfcompile:
    sys.exit("serve benchmark JSON is missing the 'lfcompile' section")
print(
    "compiled LFs: {}/{} compiled, {:.0f} vs interpreted {:.0f} cand/s "
    "({:.1f}x)".format(
        lfcompile["compiled_lfs"], lfcompile["total_lfs"],
        lfcompile["compiled_cps"], lfcompile["interpreted_cps"],
        lfcompile["speedup"]))

stream = result["serve"].get("appendstream")
if not stream:
    sys.exit("serve benchmark JSON is missing the 'appendstream' section")
print(
    "append-only stream: cached {:.3f}s vs cache-off {:.3f}s over {} steps "
    "({:.1f}x, {} tail rows appended)".format(
        stream["cached_s"], stream["nocache_s"], stream["steps"],
        stream["speedup"], stream["appended_rows"]))

# The networked-fabric section: the loopback RPC tax must stay on the
# trajectory. Loopback bounds protocol cost only — real networks add NIC
# latency and congestion on top, so these numbers are a floor for the wire
# tax, not a datacenter estimate.
with open(net_path) as f:
    result["net"] = json.load(f)
net = result["net"]
if "loopback_cps" not in net:
    sys.exit("net benchmark JSON is missing the loopback section")
print(
    "net fabric: in-process {:.0f} vs loopback {:.0f} cand/s ({} callers)".format(
        net["inprocess_cps"], net["loopback_cps"], net["callers"]))

# The replicated-failover section (PR 7): R-way placement must stay cheap
# when healthy and keep serving (at reduced throughput, zero failures)
# through a one-shard outage.
failover = net.get("failover")
if not failover:
    sys.exit("net benchmark JSON is missing the 'failover' section")
print(
    "failover: single-owner {:.0f} vs R=2 {:.0f} cand/s; one-shard outage "
    "{:.0f} cand/s with {} failovers and zero failed requests".format(
        failover["r1_cps"], failover["r2_cps"], failover["outage_cps"],
        failover["failovers"]))

# The observability section (PR 8): tracing must stay cheap. A missing
# section means the benchmark silently dropped the overhead probe; an
# off-path regression would hit every request in production, traced or not.
obs = net.get("obs")
if not obs:
    sys.exit("net benchmark JSON is missing the 'obs' section")
print(
    "observability: tracing off {:.0f} vs on {:.0f} cand/s "
    "({:.1f}% overhead when traced, {} spans per traced run)".format(
        obs["trace_off_cps"], obs["trace_on_cps"], obs["overhead_pct"],
        obs["spans_per_run"]))

# The overload-control section (PR 10): goodput at 2x saturating load must
# stay on the trajectory — a missing section means the benchmark silently
# dropped the saturation probe, and a collapsing ratio means shedding
# regressed into congestion collapse.
overload = net.get("overload")
if not overload:
    sys.exit("net benchmark JSON is missing the 'overload' section")
print(
    "overload: goodput 1x {:.0f} vs 2x {:.0f} cand/s (ratio {:.2f}); "
    "{} queue rejections, {} shed, {} expired-work cancellations".format(
        overload["goodput_1x_cps"], overload["goodput_2x_cps"],
        overload["goodput_ratio_2x"], overload["queue_rejections"],
        overload["shed"], overload["expired_cancelled"]))

with open(out_path, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
