// Counting semaphore tests: counting semantics, hand-off, async use, variants.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/core/thread.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;
using sunmt_test::WaitUntil;

constexpr int64_t kWaitNs = 5'000'000'000;

TEST(Sema, ZeroInitializedIsUsableAsZeroCount) {
  static sema_t sem;  // zero storage == count 0
  EXPECT_EQ(sema_tryp(&sem), 0);
  sema_v(&sem);
  EXPECT_EQ(sema_tryp(&sem), 1);
  EXPECT_EQ(sema_tryp(&sem), 0);
}

TEST(Sema, InitialCountIsConsumable) {
  sema_t sem = {};
  sema_init(&sem, 3, 0, nullptr);
  EXPECT_EQ(sema_tryp(&sem), 1);
  EXPECT_EQ(sema_tryp(&sem), 1);
  EXPECT_EQ(sema_tryp(&sem), 1);
  EXPECT_EQ(sema_tryp(&sem), 0);
}

TEST(Sema, VThenPDoesNotBlock) {
  sema_t sem = {};
  sema_v(&sem);
  sema_p(&sem);  // must return immediately
  SUCCEED();
}

TEST(Sema, PBlocksUntilV) {
  static sema_t sem;
  sema_init(&sem, 0, 0, nullptr);
  static std::atomic<int> phase;
  phase.store(0);
  thread_id_t id = Spawn([&] {
    phase.store(1);
    sema_p(&sem);
    phase.store(2);
  });
  ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  EXPECT_EQ(phase.load(), 1);  // still blocked
  sema_v(&sem);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(phase.load(), 2);
}

TEST(Sema, EveryVReleasesExactlyOneP) {
  static sema_t sem;
  sema_init(&sem, 0, 0, nullptr);
  static std::atomic<int> through;
  through.store(0);
  constexpr int kWaiters = 5;
  std::vector<thread_id_t> ids;
  for (int i = 0; i < kWaiters; ++i) {
    ids.push_back(Spawn([&] {
      sema_p(&sem);
      through.fetch_add(1);
    }));
  }
  for (thread_id_t id : ids) {
    ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));  // all parked in sema_p
  }
  EXPECT_EQ(through.load(), 0);
  for (int expect = 1; expect <= kWaiters; ++expect) {
    sema_v(&sem);
    EXPECT_TRUE(WaitUntil([expect] { return through.load() >= expect; }, kWaitNs));
    EXPECT_EQ(through.load(), expect);
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
}

TEST(Sema, HandshakePairMatchesPaperFigure6Pattern) {
  // The exact measurement loop of Figure 6, run once for correctness.
  static sema_t s1, s2;
  sema_init(&s1, 0, 0, nullptr);
  sema_init(&s2, 0, 0, nullptr);
  thread_id_t partner = Spawn([&] {
    for (int i = 0; i < 100; ++i) {
      sema_p(&s1);
      sema_v(&s2);
    }
  });
  for (int i = 0; i < 100; ++i) {
    sema_v(&s1);
    sema_p(&s2);
  }
  EXPECT_TRUE(Join(partner));
}

// Property sweep: N producers / M consumers over every variant keep the count
// conserved (total Vs == total successful Ps).
class SemaPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SemaPropertyTest, TokenConservation) {
  const int variant = std::get<0>(GetParam());
  const int producers = std::get<1>(GetParam());
  const int consumers = std::get<2>(GetParam());
  constexpr int kTokensPerProducer = 600;

  static sema_t sem;
  sema_init(&sem, 0, variant, nullptr);
  static std::atomic<int> consumed;
  consumed.store(0);
  const int total = producers * kTokensPerProducer;
  // Consumers take a fair share each so they all terminate.
  ASSERT_EQ(total % consumers, 0);
  const int share = total / consumers;

  std::vector<thread_id_t> ids;
  for (int p = 0; p < producers; ++p) {
    ids.push_back(Spawn([=] {
      for (int i = 0; i < kTokensPerProducer; ++i) {
        sema_v(&sem);
        if (i % 64 == 0) {
          thread_yield();
        }
      }
    }));
  }
  for (int c = 0; c < consumers; ++c) {
    ids.push_back(Spawn([=] {
      for (int i = 0; i < share; ++i) {
        sema_p(&sem);
        consumed.fetch_add(1);
      }
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sema_tryp(&sem), 0);  // nothing left over
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndShapes, SemaPropertyTest,
    ::testing::Combine(::testing::Values(0, THREAD_SYNC_SHARED),
                       ::testing::Values(1, 2, 3), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "local" : "shared") + "_p" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Sema, BoundAndUnboundMix) {
  static sema_t ping, pong;
  sema_init(&ping, 0, 0, nullptr);
  sema_init(&pong, 0, 0, nullptr);
  thread_id_t bound = Spawn(
      [&] {
        for (int i = 0; i < 200; ++i) {
          sema_p(&ping);
          sema_v(&pong);
        }
      },
      THREAD_WAIT | THREAD_BIND_LWP);
  thread_id_t unbound = Spawn([&] {
    for (int i = 0; i < 200; ++i) {
      sema_v(&ping);
      sema_p(&pong);
    }
  });
  EXPECT_TRUE(Join(bound));
  EXPECT_TRUE(Join(unbound));
}

}  // namespace
}  // namespace sunmt
