// Mutex tests: exclusion invariants, variants, zero-initialization, debug checks.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "src/core/thread.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

constexpr int64_t kWaitNs = 5'000'000'000;

TEST(Mutex, ZeroInitializedIsUsable) {
  // "Any synchronization variable that is statically or dynamically allocated
  // as zero may be used immediately without further initialization."
  static mutex_t mu;  // zero static storage
  mutex_enter(&mu);
  mutex_exit(&mu);
  EXPECT_EQ(mutex_tryenter(&mu), 1);
  mutex_exit(&mu);
}

TEST(Mutex, TryenterFailsWhenHeld) {
  mutex_t mu = {};
  mutex_enter(&mu);
  std::atomic<int> result{-1};
  thread_id_t id = Spawn([&] { result.store(mutex_tryenter(&mu)); });
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(result.load(), 0);
  mutex_exit(&mu);
  id = Spawn([&] {
    result.store(mutex_tryenter(&mu));
    if (result.load() == 1) {
      mutex_exit(&mu);
    }
  });
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(result.load(), 1);
}

TEST(Mutex, BlockedEnterWakesOnExit) {
  static mutex_t mu;
  mutex_init(&mu, 0, nullptr);
  static std::atomic<int> phase;
  phase.store(0);
  mutex_enter(&mu);
  thread_id_t id = Spawn([&] {
    phase.store(1);
    mutex_enter(&mu);  // blocks: main holds it
    phase.store(2);
    mutex_exit(&mu);
  });
  ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  EXPECT_EQ(phase.load(), 1);  // still blocked
  mutex_exit(&mu);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(phase.load(), 2);
}

// Property: mutual exclusion holds for every variant and thread count.
class MutexExclusionTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MutexExclusionTest, CriticalSectionIsExclusive) {
  const int variant = std::get<0>(GetParam());
  const int nthreads = std::get<1>(GetParam());
  constexpr int kIters = 2000;

  static mutex_t mu;
  mutex_init(&mu, variant, nullptr);
  static int counter;           // unprotected int: torn updates would show
  static std::atomic<int> in_cs;
  static std::atomic<int> max_in_cs;
  counter = 0;
  in_cs.store(0);
  max_in_cs.store(0);

  std::vector<thread_id_t> ids;
  for (int t = 0; t < nthreads; ++t) {
    ids.push_back(Spawn([=] {
      for (int i = 0; i < kIters; ++i) {
        mutex_enter(&mu);
        int now = in_cs.fetch_add(1) + 1;
        int prev_max = max_in_cs.load();
        while (now > prev_max && !max_in_cs.compare_exchange_weak(prev_max, now)) {
        }
        ++counter;
        in_cs.fetch_sub(1);
        mutex_exit(&mu);
        if (i % 64 == 0) {
          thread_yield();
        }
      }
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(counter, nthreads * kIters);
  EXPECT_EQ(max_in_cs.load(), 1) << "two threads were inside the critical section";
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndThreads, MutexExclusionTest,
    ::testing::Combine(::testing::Values(0, SYNC_ADAPTIVE, SYNC_SPIN, SYNC_DEBUG,
                                         THREAD_SYNC_SHARED),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      const char* name = "default";
      switch (std::get<0>(info.param)) {
        case SYNC_ADAPTIVE:
          name = "adaptive";
          break;
        case SYNC_SPIN:
          name = "spin";
          break;
        case SYNC_DEBUG:
          name = "debug";
          break;
        case THREAD_SYNC_SHARED:
          name = "shared";
          break;
        default:
          break;
      }
      return std::string(name) + "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Mutex, SharedVariantWorksWithinProcessToo) {
  mutex_t mu = {};
  mutex_init(&mu, THREAD_SYNC_SHARED, nullptr);
  static std::atomic<int> counter;
  counter.store(0);
  std::vector<thread_id_t> ids;
  for (int t = 0; t < 4; ++t) {
    ids.push_back(Spawn([&] {
      for (int i = 0; i < 500; ++i) {
        mutex_enter(&mu);
        counter.fetch_add(1, std::memory_order_relaxed);
        mutex_exit(&mu);
      }
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(counter.load(), 2000);
}

TEST(Mutex, BoundThreadsContend) {
  mutex_t mu = {};
  static int counter;
  counter = 0;
  std::vector<thread_id_t> ids;
  for (int t = 0; t < 4; ++t) {
    ids.push_back(Spawn(
        [&] {
          for (int i = 0; i < 500; ++i) {
            mutex_enter(&mu);
            ++counter;
            mutex_exit(&mu);
          }
        },
        THREAD_WAIT | THREAD_BIND_LWP));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(counter, 2000);
}

TEST(Mutex, MixedBoundAndUnboundContend) {
  // "Bound and unbound threads can still synchronize with each other in the
  // usual way."
  mutex_t mu = {};
  static int counter;
  counter = 0;
  std::vector<thread_id_t> ids;
  for (int t = 0; t < 6; ++t) {
    int flags = THREAD_WAIT | ((t % 2 == 0) ? THREAD_BIND_LWP : 0);
    ids.push_back(Spawn(
        [&] {
          for (int i = 0; i < 300; ++i) {
            mutex_enter(&mu);
            ++counter;
            mutex_exit(&mu);
            if (i % 32 == 0) {
              thread_yield();
            }
          }
        },
        flags));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(counter, 1800);
}

TEST(MutexDeathTest, DebugVariantCatchesNonOwnerRelease) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mutex_t mu = {};
        mutex_init(&mu, SYNC_DEBUG, nullptr);
        mutex_exit(&mu);  // releasing a lock we do not hold
      },
      "");
}

TEST(MutexDeathTest, DebugVariantDetectsAbbaDeadlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Classic AB-BA deadlock between two threads on SYNC_DEBUG mutexes: the
        // wait-for-graph walk must panic instead of hanging forever. The
        // semaphores force the true cycle (each side holds one lock before
        // either requests its second). The inversion is deliberate, so lockdep
        // (on under SUNMT_DEBUG=lockorder,panic) must not abort on it first.
        lockdep::Disable();
        static mutex_t a;
        static mutex_t b;
        mutex_init(&a, SYNC_DEBUG, nullptr);
        mutex_init(&b, SYNC_DEBUG, nullptr);
        static sema_t a_held;
        static sema_t b_held;
        sema_init(&a_held, 0, 0, nullptr);
        sema_init(&b_held, 0, 0, nullptr);
        thread_id_t peer = Spawn([] {
          sema_p(&a_held);
          mutex_enter(&b);
          sema_v(&b_held);
          mutex_enter(&a);  // blocks on main's hold, or detects the cycle
          mutex_exit(&a);
          mutex_exit(&b);
        });
        mutex_enter(&a);
        sema_v(&a_held);
        sema_p(&b_held);
        mutex_enter(&b);  // closes the cycle: one side must panic
        mutex_exit(&b);
        mutex_exit(&a);
        Join(peer);
      },
      "deadlock");
}

TEST(MutexDeathTest, DebugVariantCatchesRecursiveEnter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mutex_t mu = {};
        mutex_init(&mu, SYNC_DEBUG, nullptr);
        mutex_enter(&mu);
        mutex_enter(&mu);  // strictly bracketing: recursion is an error
      },
      "");
}

}  // namespace
}  // namespace sunmt
