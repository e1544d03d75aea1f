// Ablation A13 — timer engine churn: a million deadlines armed, cancelled,
// and expired.
//
// The workload is the timed-wait pattern every server body produces: arm a
// deadline, do the work, cancel before it fires (the fast path), with a side
// of real expirations and a burst phase holding a million live timers. Three
// phases:
//
//   churn   4 threads x 250k cancel+re-arm pairs against a standing
//           population of 1000 live 10s-out timers per thread — the
//           rearm-before-fire fast path with the live-deadline census a real
//           server carries (every connection holds a pending timeout). Each
//           pair is an O(1) unlink plus an O(1) bucket insert, each under
//           one shard lock.
//   expire  100k short one-shots (1..50ms), measuring delivered fires/s
//           through the engine's fire path.
//   burst   arm 1M live 30s-out timers, then cancel all 1M.
//
// scripts/bench.sh gates churn_pairs_per_s against the recorded baseline.

#include <atomic>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace {

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSec = 1000 * kMs;
constexpr int kThreads = 4;
constexpr int kChurnPairsPerThread = 250'000;  // x4 threads = 1M pairs
constexpr int kLivePerThread = 1000;           // standing deadline census
constexpr int kExpireTimers = 100'000;
constexpr int kBurstTimers = 1'000'000;

void NopCb(void*, uint64_t) {}

struct ChurnArgs {
  int id = 0;
  std::atomic<uint64_t>* failures = nullptr;
};

void ChurnMain(void* arg) {
  auto* a = static_cast<ChurnArgs*>(arg);
  sunmt::SplitMix64 rng(0xc0ffee ^ (a->id * 0x9e3779b97f4a7c15ull));
  std::vector<sunmt::timer_id_t> ring(kLivePerThread, sunmt::kInvalidTimerId);
  for (sunmt::timer_id_t& slot : ring) {
    slot = sunmt::timer_arm_callback(10 * kSec, &NopCb, nullptr, 0);
    if (slot == sunmt::kInvalidTimerId) {
      a->failures->fetch_add(1);
      return;
    }
  }
  for (int i = 0; i < kChurnPairsPerThread; ++i) {
    // A random live deadline completes early and is replaced — the cancel +
    // re-arm a timed wait performs when the awaited event beats the timeout.
    sunmt::timer_id_t& slot = ring[rng.NextBounded(kLivePerThread)];
    if (sunmt::timer_cancel(slot) != 0) {
      a->failures->fetch_add(1);
      break;
    }
    slot = sunmt::timer_arm_callback(10 * kSec, &NopCb, nullptr, 0);
    if (slot == sunmt::kInvalidTimerId) {
      a->failures->fetch_add(1);
      break;
    }
  }
  for (sunmt::timer_id_t slot : ring) {
    if (slot != sunmt::kInvalidTimerId) {
      sunmt::timer_cancel(slot);
    }
  }
}

struct ExpireArgs {
  int iters = 0;
  uint64_t seed = 0;
  std::atomic<uint64_t>* failures = nullptr;
};

void ExpireMain(void* arg) {
  auto* a = static_cast<ExpireArgs*>(arg);
  sunmt::SplitMix64 rng(a->seed);
  for (int i = 0; i < a->iters; ++i) {
    int64_t delay = static_cast<int64_t>(1 + rng.NextBounded(50)) * kMs;
    if (sunmt::timer_arm_callback(delay, &NopCb, nullptr, 0) ==
        sunmt::kInvalidTimerId) {
      a->failures->fetch_add(1);
      return;
    }
  }
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(sunmt::MonotonicNowNs() - start_ns) / 1e9;
}

}  // namespace

int main() {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = kThreads;
  sunmt::Runtime::Configure(config);
  std::atomic<uint64_t> failures{0};

  // -- churn --
  std::vector<ChurnArgs> cargs(kThreads);
  int64_t t0 = sunmt::MonotonicNowNs();
  std::vector<sunmt::thread_id_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    cargs[t] = ChurnArgs{t, &failures};
    ids.push_back(sunmt::thread_create(nullptr, 0, &ChurnMain, &cargs[t],
                                       sunmt::THREAD_WAIT));
  }
  for (sunmt::thread_id_t id : ids) {
    sunmt::thread_wait(id);
  }
  double churn_s = SecondsSince(t0);
  if (failures.load() != 0) {
    fprintf(stderr, "churn failures: %llu\n",
            static_cast<unsigned long long>(failures.load()));
    return 1;
  }
  double churn_rate = static_cast<double>(kThreads) * kChurnPairsPerThread /
                      churn_s;

  // -- expire --
  uint64_t fires0 = sunmt::timer_fire_count();
  std::vector<ExpireArgs> eargs(kThreads);
  t0 = sunmt::MonotonicNowNs();
  ids.clear();
  for (int t = 0; t < kThreads; ++t) {
    eargs[t] = ExpireArgs{kExpireTimers / kThreads,
                          0x9e3779b97f4a7c15ull * (t + 1), &failures};
    ids.push_back(sunmt::thread_create(nullptr, 0, &ExpireMain, &eargs[t],
                                       sunmt::THREAD_WAIT));
  }
  for (sunmt::thread_id_t id : ids) {
    sunmt::thread_wait(id);
  }
  int64_t wait_deadline = sunmt::MonotonicNowNs() + 60 * kSec;
  while (sunmt::timer_fire_count() - fires0 <
             static_cast<uint64_t>(kExpireTimers) &&
         sunmt::MonotonicNowNs() < wait_deadline) {
    sunmt::thread_yield();
  }
  double expire_s = SecondsSince(t0);
  uint64_t delivered = sunmt::timer_fire_count() - fires0;
  if (failures.load() != 0 || delivered < kExpireTimers) {
    fprintf(stderr, "expire: delivered %llu of %d\n",
            static_cast<unsigned long long>(delivered), kExpireTimers);
    return 1;
  }
  double expire_rate = delivered / expire_s;

  // -- burst --
  std::vector<sunmt::timer_id_t> burst;
  burst.reserve(kBurstTimers);
  t0 = sunmt::MonotonicNowNs();
  for (int i = 0; i < kBurstTimers; ++i) {
    sunmt::timer_id_t id =
        sunmt::timer_arm_callback(30 * kSec, &NopCb, nullptr, 0);
    if (id == sunmt::kInvalidTimerId) {
      fprintf(stderr, "burst arm %d failed\n", i);
      return 1;
    }
    burst.push_back(id);
  }
  double burst_arm_rate = kBurstTimers / SecondsSince(t0);
  t0 = sunmt::MonotonicNowNs();
  for (sunmt::timer_id_t id : burst) {
    if (sunmt::timer_cancel(id) != 0) {
      fprintf(stderr, "burst cancel failed\n");
      return 1;
    }
  }
  double burst_cancel_rate = kBurstTimers / SecondsSince(t0);

  printf("\nabl_timer_churn: churn=%.3gM pairs/s; expire=%.3gk/s; "
         "burst arm=%.3gM/s cancel=%.3gM/s\n",
         churn_rate / 1e6, expire_rate / 1e3, burst_arm_rate / 1e6,
         burst_cancel_rate / 1e6);

  sunmt_bench::BenchJson json("abl_timer_churn");
  json.Add("churn_pairs_per_s", churn_rate);
  json.Add("expire_fires_per_s", expire_rate);
  json.Add("burst_arm_per_s", burst_arm_rate);
  json.Add("burst_cancel_per_s", burst_cancel_rate);
  json.Emit();
  return 0;
}
