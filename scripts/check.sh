#!/usr/bin/env bash
# Tier-1 gate plus the sanitizer pass on the concurrency-heavy subsystems.
#
#   1. Regular build + full ctest (the ROADMAP tier-1 command), then the full
#      suite again pinned to one CPU (taskset -c 0), where every LWP — the
#      netpoll owner, the threads it wakes, the watchdog — shares one core.
#      Tier-1 runs once more on the portable ucontext context backend
#      (SUNMT_FORCE_UCONTEXT, build-uc/), so the backend the x86-64 build
#      never selects stays correct. The fork lane repeats the fork1() binaries
#      (ipc_test, preempt_test) five times: their tests fork while other
#      kernel threads hold package locks, and one pass gives that race little
#      chance to show.
#   2. SUNMT_SANITIZE=thread build, running the `net`, `http`, `stats`,
#      `sched`, `lifecycle`, `timer` and `sync` labels — the netpoller's
#      park/wake path, the HTTP server's connection/cache/access-log
#      fan-out, the trace/stats seqlock, the sharded run queue's steal/box
#      migration, the magazine stack cache + sharded registry, the timing
#      wheel's cancel/claim/fire hand-off, and the sync variables'
#      hand-offs and timed waits (plus the pthread and C++ layers over them)
#      are the places a data race would live.
#   3. SUNMT_SANITIZE=address build, running the `lifecycle` and `timer`
#      labels plus thread_test, introspect_test, lockdep_test and http_test —
#      thread stacks recycled through the magazine cache or handed back to
#      the application, the timer wheel's pooled entries, snapshots taken
#      while LWPs retire and are reaped, threads left parked on shared-memory
#      futex words at exit, and connection threads writing access-log lines
#      from their own stacks are where a use-after-free, stale redzone or
#      unmapped wait would show.
#   4. Lockdep lane: the `lockdep` label (order-inversion + deadlock detector,
#      see src/debug) plain and under TSan, plus a full-suite pass with
#      SUNMT_DEBUG=lockorder,panic to prove the detector stays
#      false-positive-free on every locking pattern the tests exercise (any
#      report aborts its test).
#   5. Zero-alloc lane: the object-cache steady-state assertion run on its
#      own for visibility — warm caches, churn sema/cv/net deadline waits and
#      HTTP connections, and require the process-wide cache-fallback counter
#      (hot-path `new` calls that missed every magazine/depot) to stay flat.
#   6. Timer-churn lane: one bench/abl_timer_churn run (1M cancel + re-arm
#      pairs, 100k expiries, a 1M-live arm/cancel burst), judged by its exit
#      status only: it exits nonzero on any failed cancel of an armed timer,
#      any lost expiry or any failed burst arm or cancel. No throughput gate
#      here; scripts/bench.sh gates its numbers.
#   7. Shakedown lane: the `inject` label (seeded perturbation sweep, see
#      src/inject) in both builds, plus an env-injected run of the net/http/
#      stats/sched/lifecycle/timer labels (schedule ops only — fault/short would
#      violate those tests' exact-timing expectations; the http test layers its
#      own fault/short sweep internally). A failing sweep prints the seed that
#      reproduces it; the env lane's banner records its seed in the log.
#   8. Benchmark lane: builds perfbench/ (a separate CMake project over the
#      same src/) and runs each workload briefly, untraced, so a change that
#      breaks the benchmark's build or its health checks fails here; then the
#      benchmark's own smoke test (metric names and units, traced counts,
#      trace export, the refusal to run without src/).
#
# Usage: scripts/check.sh [jobs]   (default: nproc)

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -S "$repo" -B "$repo/build" >/dev/null
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo
echo "== fork: ipc_test + preempt_test, five passes =="
ctest --test-dir "$repo/build" --output-on-failure -R "ipc_test|preempt_test" --repeat until-fail:5

echo
echo "== pinned: tier-1 on one CPU =="
taskset -c 0 ctest --test-dir "$repo/build" --output-on-failure

echo
echo "== ucontext: tier-1 on the portable context backend =="
cmake -S "$repo" -B "$repo/build-uc" -DSUNMT_FORCE_UCONTEXT=ON >/dev/null
cmake --build "$repo/build-uc" -j "$jobs"
ctest --test-dir "$repo/build-uc" --output-on-failure -j "$jobs"

echo
echo "== tsan: net + http + stats + sched + lifecycle + timer + sync labels =="
cmake -S "$repo" -B "$repo/build-tsan" -DSUNMT_SANITIZE=thread >/dev/null
cmake --build "$repo/build-tsan" -j "$jobs"
# TSan multiplies the http sweep's hand-offs ~10x; the smaller seed count
# keeps it inside the per-test timeout (same trade as the inject lane below).
SUNMT_SHAKEDOWN_SEEDS=16 \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L "net|http|stats|sched|lifecycle|timer|sync"

echo
echo "== asan: lifecycle + timer labels, thread_test, introspect_test, lockdep_test, http_test =="
cmake -S "$repo" -B "$repo/build-asan" -DSUNMT_SANITIZE=address >/dev/null
cmake --build "$repo/build-asan" -j "$jobs"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" -L "lifecycle|timer"
# Not ipc_test or preempt_test: gcc 12's libasan does not hold its allocator
# locks across fork(), so a fork1() child can hang on one a parent thread
# held. Fork1.PackageLocksAreRepairedInChild hangs there: every other thread
# of its stuck child waits on one futex just past ASan's allocator space.
# (TSan skips the fork1 tests: a TSan child may not start threads.)
ctest --test-dir "$repo/build-asan" --output-on-failure -R "thread_test|introspect_test|lockdep_test|http_test"

echo
echo "== lockdep: lockdep label (plain + tsan) =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" -L lockdep
# The detector's own spinlock-free report path and the held-stack updates are
# exactly the kind of code TSan should look at; the label stays small enough
# to run the full sweep under it.
SUNMT_SHAKEDOWN_SEEDS=16 \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L lockdep
# The whole suite must also survive with the detector live: every acquire in
# every test doubles as lockdep input, and ",panic" makes a false positive
# abort here instead of only printing.
SUNMT_DEBUG=lockorder,panic \
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo
echo "== zero-alloc: object-cache steady-state assertion =="
# Runs inside the full suite too; the dedicated invocation makes a hot-path
# allocation regression fail loudly under its own banner instead of hiding in
# the tier-1 wall of green.
ctest --test-dir "$repo/build" --output-on-failure -R object_cache_test

echo
echo "== timer churn: abl_timer_churn (exit status only) =="
# No tier-1 test drives the cancel path at this scale.
"$repo/build/bench/abl_timer_churn"

echo
echo "== shakedown: inject label (plain + tsan) =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" -L inject
# TSan multiplies every hand-off ~10x; a smaller sweep keeps the lane inside
# the per-test timeout while still varying the decision streams.
SUNMT_SHAKEDOWN_SEEDS=16 \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L inject

echo
echo "== shakedown: env-injected net/http/stats/sched/lifecycle/timer labels =="
# Schedule-perturbation family only: these tests assert exact counts/latencies
# that injected faults or short transfers would legitimately change. (The http
# test runs its own fault/short sweep internally on top of this.)
inject_seed=$(( $(date +%s) % 10000 ))
echo "SUNMT_INJECT seed=$inject_seed (replay a failure by exporting the same spec)"
SUNMT_INJECT="seed=$inject_seed,rate=0.05,ops=yield|delay|steal" \
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" -L "net|http|stats|sched|lifecycle|timer"
SUNMT_INJECT="seed=$inject_seed,rate=0.02,ops=yield|delay|steal" SUNMT_SHAKEDOWN_SEEDS=16 \
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L "net|http|stats|sched|lifecycle|timer"

echo
echo "== benchmark: perfbench workloads (untraced, 2 s each) =="
for workload in http_keepalive http_churn forkjoin; do
  python3 "$repo/perfbench/run.py" --workload "$workload" --seed 1 --seconds 2 --trace 0
done
python3 "$repo/perfbench/smoke_test.py"

echo
echo "check.sh: all green"
