#!/bin/sh
# Throughput regression gate for the exploration service benches.
#
# Shapes understood:
#   - BENCH_PR4.json:  "requests_per_second" at the top level
#   - BENCH_PR7.json:  the serve leg nested under "serve"
#   - BENCH_PR8.json:  the fleet bench ("bench":"fleet") — its top-level
#     requests_per_second is the aggregate across every shard
#   - BENCH_PR9.json:  the fleet bench plus a "pipeline" depth sweep;
#     "pipeline".best.requests_per_second is the deepest-point headline
#   - BENCH_PR10.json: the fleet tracing-overhead bench
#     ("bench":"fleet-tracing-overhead") — gated on its own recorded
#     overhead_pct, not on throughput
#
# Gates:
#   - serve vs serve: fail on a drop of more than BENCH_ALLOWED_DROP
#     (20% by default — generous because CI machines vary, tight enough
#     to catch a reintroduced global lock, which costs ~3-8x);
#   - when the current file carries "headline".speedup_at_100k, it must
#     stay at or above SWEEP_MIN_SPEEDUP (default 5);
#   - when the current file carries per-size rows (the sweep bench), no
#     row may report "equivalent_to_naive": false;
#   - fleet vs serve: the sharded aggregate must reach at least
#     FLEET_MIN_SPEEDUP (default 2) times the single-server baseline.
#     A --smoke fleet run reports the ratio but does not gate — smoke
#     sizes are too small to saturate the shards;
#   - fleet vs fleet (baseline is itself a fleet bench and the current
#     file carries "pipeline"): the best pipelined throughput must reach
#     at least PIPELINE_MIN_SPEEDUP (default 2.5) times the baseline
#     lockstep aggregate — the PR 9 data-plane gate.  Smoke runs report
#     the ratio without gating.
#   - tracing overhead: when the current file is the tracing-overhead
#     bench, its overhead_pct (median of adjacent off/on pair
#     overheads) must stay at or below OBS_FLEET_MAX_OVERHEAD (default
#     3%).  Smoke runs (one pair, tiny load) report without gating.
#
# Usage: sh scripts/bench_compare.sh [baseline.json] [current.json]
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

baseline=${1:-BENCH_PR3.json}
current=${2:-BENCH_PR4.json}
allowed_drop=${BENCH_ALLOWED_DROP:-0.20}
min_speedup=${SWEEP_MIN_SPEEDUP:-5}
fleet_min_speedup=${FLEET_MIN_SPEEDUP:-2}
pipeline_min_speedup=${PIPELINE_MIN_SPEEDUP:-2.5}
obs_fleet_max_overhead=${OBS_FLEET_MAX_OVERHEAD:-3.0}

if [ ! -f "$baseline" ]; then
  echo "bench-compare: baseline $baseline not found; pass the committed baseline JSON as the first argument" >&2
  exit 2
fi
if [ ! -f "$current" ]; then
  echo "bench-compare: $current not found; run 'dune exec bench/main.exe -- serve --json --smoke' (or 'bench fleet --json') first" >&2
  exit 2
fi

python3 - "$baseline" "$current" "$allowed_drop" "$min_speedup" "$fleet_min_speedup" "$pipeline_min_speedup" "$obs_fleet_max_overhead" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
allowed_drop, min_speedup = float(sys.argv[3]), float(sys.argv[4])
fleet_min_speedup = float(sys.argv[5])
pipeline_min_speedup = float(sys.argv[6])
obs_fleet_max_overhead = float(sys.argv[7])

def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"bench-compare: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench-compare: {path} is not valid JSON ({e.msg} at line {e.lineno})")

def rps(data, path):
    value = data.get("requests_per_second")
    if value is None:
        # BENCH_PR7 shape: the serve leg is nested under "serve"
        value = data.get("serve", {}).get("requests_per_second")
    if not isinstance(value, (int, float)) or value <= 0:
        sys.exit(f"bench-compare: no usable requests_per_second in {path} "
                 f"(expected it at the top level or under \"serve\")")
    return float(value)

current_data = load(current_path)
baseline_data = load(baseline_path)

if current_data.get("bench") == "fleet-tracing-overhead":
    # tracing-overhead gate: self-contained — the bench records the
    # median per-pair overhead of telemetry-on vs telemetry-off fleets
    overhead = current_data.get("overhead_pct")
    if not isinstance(overhead, (int, float)):
        sys.exit(f"bench-compare: no usable overhead_pct in {current_path}")
    rate = current_data.get("trace_sample")
    depth = current_data.get("depth")
    smoke = bool(current_data.get("smoke"))
    print(f"bench-compare: fleet tracing overhead {overhead:+.2f}% at depth {depth}, "
          f"sampling {rate} ({current_path}); budget {obs_fleet_max_overhead:g}%")
    if smoke:
        print("bench-compare: OK (smoke tracing run — one pair, informational, not gated)")
    elif overhead > obs_fleet_max_overhead:
        sys.exit(f"bench-compare: FAIL — tracing overhead {overhead:.2f}% exceeds "
                 f"the {obs_fleet_max_overhead:g}% budget")
    else:
        print("bench-compare: OK")
    sys.exit(0)

old = rps(baseline_data, baseline_path)
new = rps(current_data, current_path)

if (current_data.get("bench") == "fleet" and baseline_data.get("bench") == "fleet"
        and isinstance(current_data.get("pipeline"), dict)):
    # data-plane gate: the best pipelined aggregate vs the baseline
    # fleet's lockstep aggregate
    best = current_data["pipeline"].get("best", {})
    best_rps = best.get("requests_per_second")
    best_depth = best.get("depth")
    if not isinstance(best_rps, (int, float)) or best_rps <= 0:
        sys.exit(f"bench-compare: no usable pipeline.best.requests_per_second in {current_path}")
    ratio = best_rps / old
    smoke = bool(current_data.get("smoke"))
    print(f"bench-compare: pipelined fleet {best_rps:.1f} req/s at depth {best_depth} "
          f"({current_path}) vs fleet baseline {old:.1f} req/s ({baseline_path}): "
          f"{ratio:.2f}x (floor {pipeline_min_speedup:g}x)")
    if smoke:
        print("bench-compare: OK (smoke fleet run — ratio is informational, not gated)")
    elif ratio < pipeline_min_speedup:
        sys.exit(f"bench-compare: FAIL — pipelined aggregate {best_rps:.1f} req/s is below "
                 f"{pipeline_min_speedup:g}x the fleet baseline "
                 f"({old * pipeline_min_speedup:.1f} req/s)")
    else:
        print("bench-compare: OK")
    sys.exit(0)

if current_data.get("bench") == "fleet":
    # sharding gate: the fleet aggregate vs the single-server baseline
    ratio = new / old
    smoke = bool(current_data.get("smoke"))
    print(f"bench-compare: fleet {new:.1f} req/s ({current_path}) vs serve baseline "
          f"{old:.1f} req/s ({baseline_path}): {ratio:.2f}x (floor {fleet_min_speedup:g}x)")
    if smoke:
        print("bench-compare: OK (smoke fleet run — ratio is informational, not gated)")
    elif ratio < fleet_min_speedup:
        sys.exit(f"bench-compare: FAIL — fleet aggregate {new:.1f} req/s is below "
                 f"{fleet_min_speedup:g}x the serve baseline ({old * fleet_min_speedup:.1f} req/s)")
    else:
        print("bench-compare: OK")
    sys.exit(0)

floor = old * (1.0 - allowed_drop)
change = (new - old) / old * 100.0
print(f"bench-compare: baseline {old:.1f} req/s ({baseline_path}), "
      f"current {new:.1f} req/s ({current_path}), change {change:+.1f}%")
if new < floor:
    sys.exit(f"bench-compare: FAIL — current throughput {new:.1f} req/s is below "
             f"the allowed floor {floor:.1f} req/s ({allowed_drop:.0%} drop from baseline)")

mismatched = [row.get("cores") for row in current_data.get("sizes", [])
              if isinstance(row, dict) and row.get("equivalent_to_naive") is False]
if mismatched:
    sys.exit(f"bench-compare: FAIL — {current_path} reports equivalent_to_naive: false "
             f"at {', '.join(str(n) for n in mismatched)} cores")

speedup = current_data.get("headline", {}).get("speedup_at_100k")
if isinstance(speedup, (int, float)):
    print(f"bench-compare: columnar cold-sweep speedup at 10^5 cores: {speedup:.2f}x "
          f"(floor {min_speedup:g}x)")
    if speedup < min_speedup:
        sys.exit(f"bench-compare: FAIL — columnar sweep speedup {speedup:.2f}x is below "
                 f"the {min_speedup:g}x floor")
print("bench-compare: OK")
EOF
