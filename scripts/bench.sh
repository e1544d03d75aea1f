#!/usr/bin/env bash
# Runs every bench/abl_* binary and collects the machine-readable
# BENCH_<name>.json line each one emits (see bench/bench_util.h) into
# BENCH_<name>.json files in the repo root, so the perf trajectory is
# recorded per PR instead of scrolling away in a terminal.
#
# Usage: scripts/bench.sh [extra benchmark args...]
#   e.g. scripts/bench.sh --benchmark_min_time=0.2
#
# Also guards the shakedown injector's zero-cost-when-disabled claim (with
# SUNMT_INJECT unset, abl_microtask must stay within 1% of the recorded
# baseline plus the measured run-to-run noise floor of two back-to-back runs)
# and the lockdep detector's equivalent claim on abl_mutex_variants with
# SUNMT_DEBUG unset.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"

if [[ ! -d "$build/bench" ]]; then
  echo "bench.sh: $build/bench missing — run cmake + build first" >&2
  exit 1
fi

shopt -s nullglob
benches=("$build"/bench/abl_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "bench.sh: no abl_* binaries under $build/bench" >&2
  exit 1
fi

# Stash the previously recorded microtask baseline before the loop overwrites
# it; the injector cost check below compares against it.
prev_micro="$(mktemp)"
prev_scale="$(mktemp)"
prev_mutex="$(mktemp)"
prev_http="$(mktemp)"
prev_timer="$(mktemp)"
prev_echo="$(mktemp)"
trap 'rm -f "$prev_micro" "$prev_scale" "$prev_mutex" "$prev_http" "$prev_timer" "$prev_echo"' EXIT
cp "$repo/BENCH_abl_microtask.json" "$prev_micro" 2>/dev/null || true
cp "$repo/BENCH_abl_thread_scale.json" "$prev_scale" 2>/dev/null || true
cp "$repo/BENCH_abl_mutex_variants.json" "$prev_mutex" 2>/dev/null || true
cp "$repo/BENCH_abl_http_load.json" "$prev_http" 2>/dev/null || true
cp "$repo/BENCH_abl_timer_churn.json" "$prev_timer" 2>/dev/null || true
cp "$repo/BENCH_abl_net_echo.json" "$prev_echo" 2>/dev/null || true

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

# ---- Injector disabled-path cost gate ---------------------------------------
# The shakedown hooks (src/inject) are compiled into every hand-off path; when
# SUNMT_INJECT is unset each one must cost a single relaxed load. Compare the
# fresh abl_microtask numbers against the recorded baseline, allowing 1% plus
# the noise floor measured from a second back-to-back run.
micro="$build/bench/abl_microtask"
if [[ -s "$prev_micro" && -x "$micro" && $failed -eq 0 ]]; then
  echo "== injector disabled-path cost (abl_microtask vs recorded baseline) =="
  out2="$("$micro" "$@" 2>&1)" || { echo "$out2"; exit 1; }
  rerun="$(printf '%s\n' "$out2" | grep -E '^BENCH_abl_microtask\.json ' | tail -1)"
  python3 - "$prev_micro" "$repo/BENCH_abl_microtask.json" <<PY || failed=1
import json, math, sys
prev = json.load(open(sys.argv[1]))["metrics"]
run1 = json.load(open(sys.argv[2]))["metrics"]
run2 = json.loads("""${rerun#BENCH_abl_microtask.json }""")["metrics"]
keys = sorted(set(prev) & set(run1) & set(run2))
if not keys:
    sys.exit("no shared metrics between baseline and fresh runs")
def geomean(vals):
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
noise = geomean([max(run1[k], run2[k]) / min(run1[k], run2[k]) for k in keys]) - 1
cost = geomean([run1[k] / prev[k] for k in keys]) - 1
allowed = 0.01 + noise
print(f"  geomean vs baseline: {cost:+.2%}  (noise floor {noise:.2%}, allowed {allowed:.2%})")
if cost > allowed:
    sys.exit(f"injector disabled-path cost {cost:.2%} exceeds {allowed:.2%}")
print("  injector disabled-path cost within noise")
PY
fi

# ---- Lockdep disabled-path cost gate ----------------------------------------
# The lock-order detector (src/debug/lockdep) hooks every mutex/rwlock/sema/
# condvar acquire; with SUNMT_DEBUG unset each hook must cost one relaxed load.
# Same construction as the injector gate: fresh abl_mutex_variants vs the
# recorded baseline, allowing 1% plus the measured run-to-run noise floor.
mutexb="$build/bench/abl_mutex_variants"
if [[ -s "$prev_mutex" && -x "$mutexb" && $failed -eq 0 ]]; then
  echo "== lockdep disabled-path cost (abl_mutex_variants vs recorded baseline) =="
  out2="$("$mutexb" "$@" 2>&1)" || { echo "$out2"; exit 1; }
  rerun="$(printf '%s\n' "$out2" | grep -E '^BENCH_abl_mutex_variants\.json ' | tail -1)"
  python3 - "$prev_mutex" "$repo/BENCH_abl_mutex_variants.json" <<PY || failed=1
import json, math, sys
prev = json.load(open(sys.argv[1]))["metrics"]
run1 = json.load(open(sys.argv[2]))["metrics"]
run2 = json.loads("""${rerun#BENCH_abl_mutex_variants.json }""")["metrics"]
keys = sorted(set(prev) & set(run1) & set(run2))
if not keys:
    sys.exit("no shared metrics between baseline and fresh runs")
def geomean(vals):
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
noise = geomean([max(run1[k], run2[k]) / min(run1[k], run2[k]) for k in keys]) - 1
cost = geomean([run1[k] / prev[k] for k in keys]) - 1
allowed = 0.01 + noise
print(f"  geomean vs baseline: {cost:+.2%}  (noise floor {noise:.2%}, allowed {allowed:.2%})")
if cost > allowed:
    sys.exit(f"lockdep disabled-path cost {cost:.2%} exceeds {allowed:.2%}")
print("  lockdep disabled-path cost within noise")
PY
fi

# ---- HTTP throughput regression gate ----------------------------------------
# The HTTP server is the end-to-end consumer of the netpoller + unbound-thread
# stack; fail if keep-alive requests/s at either connection scale regresses
# more than 10% + the measured noise floor against the recorded baseline.
# Throughput on the shared 1-CPU box swings ~±25% run to run, so the gate
# takes the best of two runs (the baseline records a median-of-runs figure,
# not a best-of, for the same reason).
httpb="$build/bench/abl_http_load"
if [[ -s "$prev_http" && -s "$repo/BENCH_abl_http_load.json" && -x "$httpb" && $failed -eq 0 ]]; then
  echo "== http throughput (best-of-2 reqs/s vs recorded baseline) =="
  out2="$("$httpb" "$@" 2>&1)" || { echo "$out2"; exit 1; }
  rerun="$(printf '%s\n' "$out2" | grep -E '^BENCH_abl_http_load\.json ' | tail -1)"
  python3 - "$prev_http" "$repo/BENCH_abl_http_load.json" <<PY || failed=1
import json, sys
prev = json.load(open(sys.argv[1]))["metrics"]
run1 = json.load(open(sys.argv[2]))["metrics"]
run2 = json.loads("""${rerun#BENCH_abl_http_load.json }""")["metrics"]
bad = False
for key in ("c1k_reqs_per_s", "c10k_reqs_per_s"):
    if key not in prev or key not in run1 or key not in run2:
        print(f"  {key} missing from baseline or fresh runs; skipping")
        continue
    best = max(run1[key], run2[key])
    noise = best / min(run1[key], run2[key]) - 1
    allowed = 0.10 + noise
    delta = best / prev[key] - 1
    print(f"  {key}: {prev[key]:.0f} -> {best:.0f} best-of-2 "
          f"({delta:+.2%}, noise floor {noise:.2%}, allowed -{allowed:.2%})")
    if delta < -allowed:
        bad = True
if bad:
    sys.exit("http reqs/s regressed beyond 10% + noise floor")
print("  http throughput within bounds")
PY
fi

# ---- Net echo throughput gate ------------------------------------------------
# The echo ablation carries the netpoller's raw numbers; fail if its reqs/s
# regresses more than 10% + the measured noise floor against the recorded
# baseline. Best-of-2, same construction as the http gate.
echob="$build/bench/abl_net_echo"
if [[ -s "$prev_echo" && -s "$repo/BENCH_abl_net_echo.json" && -x "$echob" && $failed -eq 0 ]]; then
  echo "== net echo throughput (best-of-2 reqs/s vs recorded baseline) =="
  out2="$("$echob" "$@" 2>&1)" || { echo "$out2"; exit 1; }
  rerun="$(printf '%s\n' "$out2" | grep -E '^BENCH_abl_net_echo\.json ' | tail -1)"
  python3 - "$prev_echo" "$repo/BENCH_abl_net_echo.json" <<PY || failed=1
import json, sys
prev = json.load(open(sys.argv[1]))["metrics"]
run1 = json.load(open(sys.argv[2]))["metrics"]
run2 = json.loads("""${rerun#BENCH_abl_net_echo.json }""")["metrics"]
key = "poller_reqs_per_s"
if key not in prev or key not in run1 or key not in run2:
    print(f"  {key} missing from baseline or fresh runs; skipping gate")
    sys.exit(0)
best = max(run1[key], run2[key])
noise = best / min(run1[key], run2[key]) - 1
allowed = 0.10 + noise
delta = best / prev[key] - 1
print(f"  {key}: {prev[key]:.0f} -> {best:.0f} best-of-2 "
      f"({delta:+.2%}, noise floor {noise:.2%}, allowed -{allowed:.2%})")
if delta < -allowed:
    sys.exit("net echo reqs/s regressed beyond 10% + noise floor")
print("  net echo throughput within bounds")
PY
fi

# ---- Timer-wheel speedup gate ------------------------------------------------
# The sharded timing wheel exists to beat the heap engine on cancel/re-arm
# churn against a standing deadline population; abl_timer_churn measures both
# engines from the same binary and must show at least 2x. (The margin is huge
# — the heap cancel is O(n) — so this gate is noise-proof even on the shared
# 1-CPU box; a failure means the ablation plumbing broke or the wheel's fast
# path regressed catastrophically.)
if [[ -s "$repo/BENCH_abl_timer_churn.json" && $failed -eq 0 ]]; then
  echo "== timer-wheel churn speedup (abl_timer_churn, wheel vs heap) =="
  python3 - "$repo/BENCH_abl_timer_churn.json" <<'PY' || failed=1
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
speedup = m.get("churn_speedup_vs_heap", 0)
print(f"  churn: wheel {m.get('churn_pairs_per_s', 0):.0f} pairs/s, "
      f"heap {m.get('churn_pairs_per_s_heap', 0):.0f} pairs/s "
      f"({speedup:.1f}x, required >= 2x)")
if speedup < 2.0:
    sys.exit(f"timer wheel churn speedup {speedup:.2f}x below the 2x floor")
print("  timer-wheel speedup within bounds")
PY
fi

# ---- Timer-churn regression gate ---------------------------------------------
# The timed-wait hot path (arm/cancel plus the per-wait ctx now coming from the
# object cache) feeds abl_timer_churn's wheel-engine numbers; fail if the
# cancel/re-arm churn rate regresses more than 10% + the measured noise floor
# against the recorded baseline. Same best-of-2 construction as the http gate
# (the shared 1-CPU box swings ~±25% run to run).
timerb="$build/bench/abl_timer_churn"
if [[ -s "$prev_timer" && -s "$repo/BENCH_abl_timer_churn.json" && -x "$timerb" && $failed -eq 0 ]]; then
  echo "== timer churn rate (best-of-2 pairs/s vs recorded baseline) =="
  out2="$("$timerb" "$@" 2>&1)" || { echo "$out2"; exit 1; }
  rerun="$(printf '%s\n' "$out2" | grep -E '^BENCH_abl_timer_churn\.json ' | tail -1)"
  python3 - "$prev_timer" "$repo/BENCH_abl_timer_churn.json" <<PY || failed=1
import json, sys
prev = json.load(open(sys.argv[1]))["metrics"]
run1 = json.load(open(sys.argv[2]))["metrics"]
run2 = json.loads("""${rerun#BENCH_abl_timer_churn.json }""")["metrics"]
key = "churn_pairs_per_s"
if key not in prev or key not in run1 or key not in run2:
    print(f"  {key} missing from baseline or fresh runs; skipping gate")
    sys.exit(0)
best = max(run1[key], run2[key])
noise = best / min(run1[key], run2[key]) - 1
allowed = 0.10 + noise
delta = best / prev[key] - 1
print(f"  {key}: {prev[key]:.0f} -> {best:.0f} best-of-2 "
      f"({delta:+.2%}, noise floor {noise:.2%}, allowed -{allowed:.2%})")
if delta < -allowed:
    sys.exit(f"timer churn rate regressed beyond 10% + noise floor")
print("  timer churn rate within bounds")
PY
fi

# ---- Thread-lifecycle regression gate ---------------------------------------
# The magazine caches + sharded registry carry the thread-scale numbers; fail
# if the per-thread cost of the 16k batch regresses more than 10% against the
# recorded baseline.
if [[ -s "$prev_scale" && -s "$repo/BENCH_abl_thread_scale.json" && $failed -eq 0 ]]; then
  echo "== thread-lifecycle cost (BM_UnboundThreadBatch/16000 vs recorded baseline) =="
  python3 - "$prev_scale" "$repo/BENCH_abl_thread_scale.json" <<'PY' || failed=1
import json, sys
key = "BM_UnboundThreadBatch/16000_real_ns"
prev = json.load(open(sys.argv[1]))["metrics"]
cur = json.load(open(sys.argv[2]))["metrics"]
if key not in prev or key not in cur:
    print(f"  {key} missing from baseline or fresh run; skipping gate")
    sys.exit(0)
n = 16000
prev_per, cur_per = prev[key] / n, cur[key] / n
delta = cur_per / prev_per - 1
print(f"  per-thread: {prev_per:.0f}ns -> {cur_per:.0f}ns ({delta:+.2%}, allowed +10%)")
if delta > 0.10:
    sys.exit(f"thread-lifecycle per-thread cost regressed {delta:.2%} (>10%)")
print("  thread-lifecycle cost within bounds")
PY
fi

exit $failed
