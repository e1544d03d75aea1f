// Stress tests for the sharded scheduler's work-stealing path.
//
// A producer thread running on one pool LWP creates bursts of children; wake
// affinity pins them to the producer's shard (next box + displaced queue
// front), so the other — otherwise idle — pool LWPs only get work by stealing.
// The tests assert that steals actually happen, that no thread is lost or
// double-dispatched under the migration traffic, and that a priority-boosted
// thread still jumps the whole cross-shard backlog (strict priority via the
// shared overflow queue). The binary runs in the TSan lane (label: sched).

#include <gtest/gtest.h>

#include <atomic>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

constexpr int kChildren = 192;

std::atomic<int> g_runs[kChildren];
std::atomic<int> g_done;
sema_t g_all_done;

struct ChildArg {
  int idx;
};
ChildArg g_args[kChildren];

void ChildEntry(void* p) {
  int idx = static_cast<ChildArg*>(p)->idx;
  // A little work so queues stay populated while the burst is in flight.
  volatile long sink = 0;
  for (long i = 0; i < 20000; ++i) {
    sink = sink + 1;
  }
  g_runs[idx].fetch_add(1, std::memory_order_acq_rel);
  if (g_done.fetch_add(1, std::memory_order_acq_rel) + 1 == kChildren) {
    sema_v(&g_all_done);
  }
}

TEST(Steal, WorkMigratesWithoutLossOrDuplication) {
  sema_init(&g_all_done, 0, 0, nullptr);
  uint64_t steals_before = SnapshotSchedStats().steals;
  bool stole = false;
  // Stealing is probabilistic (randomized victims, timing-dependent idling),
  // so run bursts until a steal is observed; correctness is asserted on every
  // round regardless.
  for (int round = 0; round < 20; ++round) {
    g_done.store(0);
    for (int i = 0; i < kChildren; ++i) {
      g_runs[i].store(0);
      g_args[i].idx = i;
    }
    // The producer itself runs on a pool LWP; its children inherit its shard
    // via wake affinity and pile up there faster than one LWP can drain.
    thread_id_t producer = Spawn([&] {
      for (int i = 0; i < kChildren; ++i) {
        ASSERT_NE(thread_create(nullptr, 0, &ChildEntry, &g_args[i], 0),
                  kInvalidThreadId);
      }
    });
    EXPECT_TRUE(Join(producer));
    sema_p(&g_all_done);
    for (int i = 0; i < kChildren; ++i) {
      ASSERT_EQ(g_runs[i].load(std::memory_order_acquire), 1)
          << "child " << i << " lost or double-dispatched in round " << round;
    }
    if (SnapshotSchedStats().steals > steals_before) {
      stole = true;
      break;
    }
  }
  EXPECT_TRUE(stole) << "idle LWPs never stole from the loaded shard";
  EXPECT_GT(SnapshotSchedStats().stolen_threads, 0u);
}

std::atomic<int> g_normals_done;
std::atomic<int> g_normals_at_boost;
std::atomic<int> g_boosted_saw;

void NormalEntry(void*) {
  volatile long sink = 0;
  for (long i = 0; i < 20000; ++i) {
    sink = sink + 1;
  }
  g_normals_done.fetch_add(1, std::memory_order_acq_rel);
}

void BoostedEntry(void*) {
  // Record how much of the earlier-enqueued backlog had finished when the
  // boosted thread got a dispatcher.
  g_boosted_saw.store(g_normals_done.load(std::memory_order_acquire),
                      std::memory_order_release);
}

TEST(Steal, BoostedThreadJumpsTheCrossShardBacklog) {
  constexpr int kBacklog = 256;
  g_normals_done.store(0);
  g_normals_at_boost.store(-1);
  g_boosted_saw.store(-1);
  thread_id_t producer = Spawn([&] {
    for (int i = 0; i < kBacklog; ++i) {
      ASSERT_NE(thread_create(nullptr, 0, &NormalEntry, nullptr, 0),
                kInvalidThreadId);
    }
    // Created stopped so its priority can be raised above kSharedPriority
    // before it is ever enqueued; thread_continue then routes it through the
    // shared overflow queue, which every dispatcher checks first.
    thread_id_t boosted =
        thread_create(nullptr, 0, &BoostedEntry, nullptr, THREAD_STOP);
    ASSERT_NE(boosted, kInvalidThreadId);
    EXPECT_GE(thread_priority(boosted, 100), 0);
    EXPECT_EQ(thread_continue(boosted), 0);
    // Sampled once the boosted thread is queued: normals that finish while
    // the producer is preempted before the continue are not scheduler slop.
    g_normals_at_boost.store(g_normals_done.load(std::memory_order_acquire),
                             std::memory_order_release);
  });
  EXPECT_TRUE(Join(producer));
  int64_t deadline_spins = 200L * 1000 * 1000;
  while (g_normals_done.load(std::memory_order_acquire) < kBacklog &&
         deadline_spins-- > 0) {
    thread_yield();
  }
  EXPECT_EQ(g_normals_done.load(), kBacklog);
  int saw = g_boosted_saw.load(std::memory_order_acquire);
  int at_boost = g_normals_at_boost.load(std::memory_order_acquire);
  ASSERT_GE(saw, 0) << "boosted thread never ran";
  ASSERT_GE(at_boost, 0);
  // The boosted thread was enqueued behind whatever backlog remained at boost
  // time, yet only the dispatches already in flight (at most one per LWP,
  // plus scheduling slop) may finish before a dispatcher takes it from the
  // overflow queue. A FIFO scheduler would let the whole backlog drain first.
  EXPECT_LE(saw - at_boost, 32)
      << "boosted thread waited behind the low-priority backlog";
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = 4;  // one loaded shard + idle LWPs that must steal
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
