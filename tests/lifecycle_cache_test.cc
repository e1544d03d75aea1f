// Lifecycle-cache suite: the magazine-layered stack cache, the sharded thread
// registry, and the owner-aware adaptive mutex added by the lifecycle scaling
// work. Runs with a 4-LWP pool so entries really do land in (and must be
// drained from) several per-LWP magazines, and churns the registry across
// shards under the same seed-sweep protocol as shakedown_test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/arch/stack.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/ipc/fork1.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::RunSweep;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

constexpr int64_t kUs = 1000;
constexpr int64_t kMs = 1000 * kUs;

constexpr uint32_t kSchedOps =
    inject::kOpYield | inject::kOpDelay | inject::kOpSteal;

// ---- Magazine protocol invariants --------------------------------------------

// Exact counter accounting on a single magazine (the calling thread's): 20
// acquires from a drained cache are all misses; recycling 20 overflows the
// 16-slot magazine exactly once (one batch flush of 8 to the depot); and
// re-acquiring them is 20 hits with exactly one depot refill — steady state
// never allocates and touches the depot once per kRefillBatch operations.
TEST(StackMagazine, RefillFlushInvariants) {
  static_assert(StackCache::kMagazineCapacity == 16, "counts below assume 16");
  static_assert(StackCache::kRefillBatch == 8, "counts below assume 8");
  constexpr size_t kN = 20;

  StackCache::Drain();
  ASSERT_EQ(StackCache::CachedCount(), 0u);
  ObjectCacheStats base = StackCache::Snapshot();

  std::vector<Stack> stacks;
  for (size_t i = 0; i < kN; ++i) {
    stacks.push_back(StackCache::Acquire());
  }
  ObjectCacheStats after_acquire = StackCache::Snapshot();
  EXPECT_EQ(after_acquire.misses - base.misses, kN);
  EXPECT_EQ(after_acquire.hits, base.hits);

  for (size_t i = 0; i < kN; ++i) {
    StackCache::Recycle(static_cast<Stack&&>(stacks[i]));
  }
  stacks.clear();
  EXPECT_EQ(StackCache::CachedCount(), kN);
  ObjectCacheStats after_recycle = StackCache::Snapshot();
  EXPECT_EQ(after_recycle.flushes - base.flushes, 1u);
  EXPECT_EQ(after_recycle.depot_depth, StackCache::kRefillBatch);
  EXPECT_EQ(after_recycle.depot_depth + after_recycle.magazine_depth, kN);

  for (size_t i = 0; i < kN; ++i) {
    stacks.push_back(StackCache::Acquire());
  }
  ObjectCacheStats after_reacquire = StackCache::Snapshot();
  EXPECT_EQ(after_reacquire.hits - base.hits, kN);
  EXPECT_EQ(after_reacquire.refills - base.refills, 1u);
  EXPECT_EQ(after_reacquire.misses, after_acquire.misses) << "reuse allocated";
  EXPECT_EQ(StackCache::CachedCount(), 0u);

  for (size_t i = 0; i < kN; ++i) {
    StackCache::Recycle(static_cast<Stack&&>(stacks[i]));
  }
  stacks.clear();
  StackCache::Drain();
  EXPECT_EQ(StackCache::CachedCount(), 0u);
  ObjectCacheStats drained = StackCache::Snapshot();
  EXPECT_EQ(drained.depot_depth, 0u);
  EXPECT_EQ(drained.magazine_depth, 0u);
}

// Drain() must reach entries parked in OTHER kernel threads' magazines: run a
// batch of unbound threads (their exit path recycles default stacks on
// whichever pool LWP reaped them), confirm the cache holds entries outside the
// depot, then Drain and expect a completely empty cache.
TEST(StackMagazine, DrainReachesPerLwpMagazines) {
  StackCache::Drain();
  ASSERT_EQ(StackCache::CachedCount(), 0u);

  constexpr int kThreads = 24;
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(Join(Spawn([] {})));
  }
  // Every joined thread's default stack was recycled somewhere in the cache.
  EXPECT_GT(StackCache::CachedCount(), 0u);
  ObjectCacheStats populated = StackCache::Snapshot();
  EXPECT_GT(populated.magazine_count, 0u);

  StackCache::Drain();
  EXPECT_EQ(StackCache::CachedCount(), 0u);
  ObjectCacheStats drained = StackCache::Snapshot();
  EXPECT_EQ(drained.depot_depth, 0u);
  EXPECT_EQ(drained.magazine_depth, 0u);
}

// fork1() child: the cache must come up empty (parent-cached mappings are
// abandoned, never double-freed), and the full acquire/recycle/drain protocol
// must work on the repaired locks. Exit codes name the failing step.
TEST(StackMagazine, ResetAfterForkInChild) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  StackCache::Drain();
  // Park a few entries in the parent's magazine so the child provably starts
  // from zero rather than inheriting them.
  std::vector<Stack> parked;
  for (int i = 0; i < 3; ++i) {
    parked.push_back(StackCache::Acquire());
  }
  for (auto& s : parked) {
    StackCache::Recycle(static_cast<Stack&&>(s));
  }
  parked.clear();
  ASSERT_EQ(StackCache::CachedCount(), 3u);

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (StackCache::CachedCount() != 0) {
      _exit(12);  // parent entries leaked into the child's cache
    }
    // Thread lifecycle must work end to end on the repaired cache.
    static std::atomic<int> sum;
    sum.store(0);
    for (int i = 0; i < 4; ++i) {
      thread_id_t id = Spawn([] { sum.fetch_add(1); });
      if (!Join(id)) {
        _exit(10);
      }
    }
    if (sum.load() != 4) {
      _exit(11);
    }
    Stack s = StackCache::Acquire();
    StackCache::Recycle(static_cast<Stack&&>(s));
    if (StackCache::CachedCount() == 0) {
      _exit(13);  // recycle did not land in the child's (new) magazine
    }
    StackCache::Drain();
    if (StackCache::CachedCount() != 0) {
      _exit(14);
    }
    _exit(0);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  // The parent's cache is untouched by the child's reset.
  EXPECT_EQ(StackCache::CachedCount(), 3u);
  StackCache::Drain();
}

// ---- Registry shards ---------------------------------------------------------

// Create/exit churn across all pool LWPs while the main thread does targeted
// lookups and whole-registry iterations, under the seed sweep. Lookup of a
// live thread must succeed, lookup of a bogus id must fail, and iteration
// (FormatProcessState snapshots every shard in order) must not wedge or crash
// against concurrent register/unregister.
TEST(RegistryShards, LookupAndIterationUnderChurn) {
  RunSweep("lifecycle", "registry-churn", 0.15, kSchedOps, [](SplitMix64& rng) {
    constexpr int kWorkers = 6;
    const int kids_per_worker = 4 + static_cast<int>(rng.NextBounded(4));
    std::atomic<int> done_workers{0};
    std::atomic<int> violations{0};
    std::vector<thread_id_t> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.push_back(Spawn([&, w] {
        for (int i = 0; i < kids_per_worker; ++i) {
          // A live kid parks on a semaphore so the parent can look it up by id
          // while it is certainly still registered.
          sema_t gate;
          sema_init(&gate, 0, 0, nullptr);
          thread_id_t kid = Spawn([&gate, w] {
            char name[16];
            snprintf(name, sizeof(name), "kid-%d", w);
            thread_setname(kInvalidThreadId, name);
            sema_p(&gate);
          });
          char buf[16];
          if (thread_getname(kid, buf, sizeof(buf)) != 0) {
            violations.fetch_add(1);  // live thread missing from its shard
          }
          sema_v(&gate);
          if (!Join(kid)) {
            violations.fetch_add(1);
          }
        }
        done_workers.fetch_add(1);
      }));
    }
    // Concurrent cross-shard traffic from the main thread.
    while (done_workers.load() < kWorkers) {
      std::string state = FormatProcessState();  // iterates every shard
      if (state.find("THREADS") == std::string::npos) {
        violations.fetch_add(1);
      }
      char buf[16];
      if (thread_getname(static_cast<thread_id_t>(1u << 30), buf,
                         sizeof(buf)) == 0) {
        violations.fetch_add(1);  // bogus id resolved
      }
      thread_yield();
    }
    for (thread_id_t id : workers) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(violations.load(), 0);
  });
}

// ---- Owner-aware adaptive mutex ----------------------------------------------

// A holder that parks (goes OFF-PROC) mid-hold: spinners must notice the owner
// is not running and block instead of burning their full spin budget; when the
// holder resumes and exits, the critical section count must be exact.
TEST(MutexOwnerAware, WaitersBlockWhileHolderParked) {
  RunSweep("lifecycle", "parked-holder", 0.15, kSchedOps, [](SplitMix64& rng) {
    mutex_t m;
    sema_t gate;
    mutex_init(&m, 0, nullptr);  // default = adaptive
    sema_init(&gate, 0, 0, nullptr);
    int counter = 0;  // guarded by m
    constexpr int kWaiters = 4;

    thread_id_t holder = Spawn([&] {
      mutex_enter(&m);
      sema_p(&gate);  // park OFF-PROC while holding the lock
      ++counter;
      mutex_exit(&m);
    });
    std::vector<thread_id_t> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.push_back(Spawn([&] {
        mutex_enter(&m);
        ++counter;
        mutex_exit(&m);
      }));
    }
    // Let the waiters pile up against the parked holder before releasing it.
    thread_sleep_ns(static_cast<int64_t>(1 + rng.NextBounded(3)) * kMs);
    sema_v(&gate);
    EXPECT_TRUE(Join(holder));
    for (thread_id_t id : waiters) {
      EXPECT_TRUE(Join(id));
    }
    mutex_enter(&m);
    EXPECT_EQ(counter, kWaiters + 1);
    mutex_exit(&m);
  });
}

// The spin/block outcome split must show up in the keyed histograms: waiters
// against a parked holder resolve by blocking, so kMutexWaitAdaptiveBlock gets
// samples (this is the before/after signal the stats satellite asks for).
TEST(MutexOwnerAware, AdaptiveBlockHistogramIsKeyed) {
  Stats::Enable();
  Stats::Reset();
  mutex_t m;
  sema_t gate;
  mutex_init(&m, 0, nullptr);
  sema_init(&gate, 0, 0, nullptr);
  std::atomic<bool> held{false};
  thread_id_t holder = Spawn([&] {
    mutex_enter(&m);
    held.store(true);
    sema_p(&gate);
    mutex_exit(&m);
  });
  thread_id_t waiter = Spawn([&] {
    while (!held.load()) {
      thread_yield();  // only contend once the holder certainly holds m
    }
    mutex_enter(&m);
    mutex_exit(&m);
  });
  // Release the holder only after the waiter is really enqueued on m, so the
  // waiter's wait is guaranteed to resolve by blocking, not spinning.
  for (;;) {
    m.qlock.Lock();
    bool queued = m.wait_head != nullptr;
    m.qlock.Unlock();
    if (queued) {
      break;
    }
    thread_yield();
  }
  sema_v(&gate);
  EXPECT_TRUE(Join(holder));
  EXPECT_TRUE(Join(waiter));
  HistogramSnapshot blocked;
  Stats::Snapshot(LatencyStat::kMutexWaitAdaptiveBlock, &blocked);
  EXPECT_GT(blocked.count, 0u);
  Stats::Disable();
}

// ---- Introspection -----------------------------------------------------------

TEST(Introspect, ObjectCacheCountersLines) {
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("OBJCACHE caches="), std::string::npos);
  EXPECT_NE(state.find("fallback_allocs="), std::string::npos);
  // The stack cache is one of the registered caches (threads have certainly
  // been created by the time this test runs) and prints its own per-cache line.
  EXPECT_NE(state.find("stack"), std::string::npos);
  EXPECT_NE(state.find("depot="), std::string::npos);
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  // Several pool LWPs: per-LWP magazines and cross-shard churn are the point.
  config.initial_pool_lwps = 4;
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
