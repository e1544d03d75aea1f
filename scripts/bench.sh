#!/usr/bin/env bash
# Runs every bench/abl_* binary and collects the machine-readable
# BENCH_<name>.json line each one emits (see bench/bench_util.h) into
# BENCH_<name>.json files in the repo root, so the perf trajectory is
# recorded per PR instead of scrolling away in a terminal. Then checks the
# fresh numbers against the previously recorded ones with the regression gates
# in the table below.
#
# Usage: scripts/bench.sh [extra benchmark args...]
#   e.g. scripts/bench.sh --benchmark_min_time=0.2

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"

if [[ ! -d "$build/bench" ]]; then
  echo "bench.sh: $build/bench missing — run cmake + build first" >&2
  exit 1
fi

# Regression gates, one row each: bench, metric keys, better direction,
# tolerance, run count. A key list (comma-separated) takes the best of the runs
# per key; "geomean" takes the geometric mean of first-run/baseline over every
# key the baseline and all runs share. Either fails when that is worse than
# the baseline by more than the tolerance plus the noise floor (max/min - 1 of
# the runs, geomean'd for "geomean"; 0 for a single run). Runs after the first
# re-execute the bench. Host throughput swings ~±25% run to run, hence the
# best-of-2 throughput gates.
gates=(
  # The shakedown hooks (src/inject) sit on every hand-off path; with
  # SUNMT_INJECT unset each must cost one relaxed load.
  "abl_microtask      geomean                             lower  0.01 2"
  # The lock-order detector (src/debug/lockdep) hooks every acquire; with
  # SUNMT_DEBUG unset each must cost one relaxed load.
  "abl_mutex_variants geomean                             lower  0.01 2"
  # The HTTP server is the end-to-end consumer of the netpoller and the
  # unbound-thread stack: keep-alive reqs/s at both connection scales.
  "abl_http_load      c1k_reqs_per_s,c10k_reqs_per_s      higher 0.10 2"
  # The netpoller's raw numbers.
  "abl_net_echo       poller_reqs_per_s                   higher 0.10 2"
  # The timed-wait hot path: arm/cancel churn against a standing population.
  "abl_timer_churn    churn_pairs_per_s                   higher 0.10 2"
  # The magazine caches and sharded registry: cost of a 16k-thread batch.
  "abl_thread_scale   BM_UnboundThreadBatch/16000_real_ns lower  0.10 1"
)

# gate BENCH KEYS BETTER TOLERANCE RUNS [bench args...]: applies one row.
# Returns nonzero when the gate fails; exits when a re-run fails.
gate() {
  local name="$1" keys="$2" better="$3" tol="$4" runs="$5"
  shift 5
  local bin="$build/bench/$name" fresh="$repo/BENCH_$name.json"
  local -a run_files=("$fresh")
  local i out
  [[ -s "$tmp/$name.prev.json" && -s "$fresh" ]] || return 0
  [[ $runs -eq 1 || -x "$bin" ]] || return 0
  echo "== $name regression gate ($keys, $better is better, $runs run(s)) vs recorded baseline =="
  for ((i = 2; i <= runs; i++)); do
    out="$("$bin" "$@" 2>&1)" || { echo "$out"; exit 1; }
    printf '%s\n' "$out" | grep -E "^BENCH_${name}\.json " | tail -1 |
      cut -d' ' -f2- > "$tmp/$name.run$i.json"
    [[ -s "$tmp/$name.run$i.json" ]] || { echo "$out"; exit 1; }
    run_files+=("$tmp/$name.run$i.json")
  done
  python3 - "$keys" "$better" "$tol" "$tmp/$name.prev.json" "${run_files[@]}" <<'PY'
import json, math, sys
keys, better, tol, prev_path, *run_paths = sys.argv[1:]
tol = float(tol)
prev = json.load(open(prev_path))["metrics"]
runs = [json.load(open(p))["metrics"] for p in run_paths]

def geomean(vals):
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

def check(label, delta, noise):
    worse = delta if better == "lower" else -delta
    allowed = tol + noise
    print(f"  {label}: {delta:+.2%} (noise floor {noise:.2%}, "
          f"allowed {'+' if better == 'lower' else '-'}{allowed:.2%})")
    return worse <= allowed

ok = True
if keys == "geomean":
    shared = sorted(set(prev).intersection(*runs))
    if not shared:
        sys.exit("no shared metrics between baseline and fresh runs")
    noise = geomean([max(r[k] for r in runs) / min(r[k] for r in runs)
                     for k in shared]) - 1
    ok = check("geomean vs baseline",
               geomean([runs[0][k] / prev[k] for k in shared]) - 1, noise)
else:
    for key in keys.split(","):
        if key not in prev or any(key not in r for r in runs):
            print(f"  {key} missing from baseline or fresh runs; skipping")
            continue
        vals = [r[key] for r in runs]
        best = min(vals) if better == "lower" else max(vals)
        ok = check(f"{key} {prev[key]:.6g} -> {best:.6g}", best / prev[key] - 1,
                   max(vals) / min(vals) - 1) and ok
if not ok:
    sys.exit("regressed beyond tolerance + noise floor")
print("  within bounds")
PY
}

shopt -s nullglob
benches=("$build"/bench/abl_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "bench.sh: no abl_* binaries under $build/bench" >&2
  exit 1
fi

# Stash the recorded baselines before the loop below overwrites them.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for row in "${gates[@]}"; do
  read -r name _ <<<"$row"
  cp "$repo/BENCH_$name.json" "$tmp/$name.prev.json" 2>/dev/null || true
done

failed=0
for bin in "${benches[@]}"; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name="$(basename "$bin")"
  echo "== $name =="
  out="$("$bin" "$@" 2>&1)" || {
    echo "$out"
    echo "bench.sh: $name FAILED" >&2
    failed=1
    continue
  }
  echo "$out"
  # Each binary prints:  BENCH_<name>.json {"bench":...}
  line="$(printf '%s\n' "$out" | grep -E "^BENCH_${name}\.json " | tail -1 || true)"
  if [[ -z "$line" ]]; then
    echo "bench.sh: $name emitted no BENCH_${name}.json line" >&2
    failed=1
    continue
  fi
  printf '%s\n' "${line#BENCH_${name}.json }" > "$repo/BENCH_${name}.json"
  echo "-> BENCH_${name}.json"
done

for row in "${gates[@]}"; do
  [[ $failed -eq 0 ]] || break
  read -r name keys better tol runs <<<"$row"
  gate "$name" "$keys" "$better" "$tol" "$runs" "$@" || failed=1
done

exit $failed
