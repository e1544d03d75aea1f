// Timing-wheel tests: deterministic unit tests on the clock-free TimingWheel
// (cascade boundaries, exact fire ticks, O(1) removal), engine-level
// regressions on the sharded wheel (fired-one-shot cancel == -1, cancel
// recycling & pool reuse, periodic self-disarm), fork1() shard repair, and a seed
// sweep hammering the timed-wait paths (sema_p_timed / cv_timedwait /
// net_read_deadline) whose stale-fire ack protocol rides on the wheel.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/io/io.h"
#include "src/ipc/fork1.h"
#include "src/net/net.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/timer/wheel.h"
#include "src/util/clock.h"
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

// ---- TimingWheel unit tests (no clock, no threads) ---------------------------

// A wheel node plus the bookkeeping the property tests assert against.
struct TestNode {
  WheelNode node;
  uint64_t armed_expiry = 0;
};

// Drains `out`'s sentinel list into a vector of TestNode pointers.
std::vector<TestNode*> Collect(WheelNode* out) {
  std::vector<TestNode*> v;
  for (WheelNode* n = out->next; n != out; n = n->next) {
    v.push_back(reinterpret_cast<TestNode*>(n));
  }
  return v;
}

TEST(TimingWheel, LevelZeroFiresAtExactTick) {
  TimingWheel w;
  w.InitCurTick(100);
  TestNode n;
  n.node.expiry_tick = 105;
  w.Insert(&n.node);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.NextEventTick(), 105u);

  WheelNode out;
  WheelListInit(&out);
  w.Advance(104, &out);
  EXPECT_TRUE(WheelListEmpty(&out));
  EXPECT_EQ(w.cur_tick(), 104u);
  w.Advance(105, &out);
  ASSERT_EQ(Collect(&out).size(), 1u);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.NextEventTick(), TimingWheel::kNoEvent);
}

TEST(TimingWheel, PastExpiryClampsToNextTick) {
  TimingWheel w;
  w.InitCurTick(1000);
  TestNode n;
  n.node.expiry_tick = 17;  // already due: buckets at cur+1, expiry preserved
  w.Insert(&n.node);
  EXPECT_EQ(w.NextEventTick(), 1001u);
  WheelNode out;
  WheelListInit(&out);
  w.Advance(1001, &out);
  auto fired = Collect(&out);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0]->node.expiry_tick, 17u);
}

// Nodes at the 64 / 64^2 / 64^3 horizons land on higher levels and cascade
// down to fire at their exact tick, never early.
TEST(TimingWheel, CascadeBoundariesFireExactly) {
  const uint64_t kStart = 0;
  const uint64_t kDeltas[] = {63, 64, 65, 4095, 4096, 4097,
                              262143, 262144, 262145};
  for (uint64_t delta : kDeltas) {
    SCOPED_TRACE(std::string("delta=") + std::to_string(delta));
    TimingWheel w;
    w.InitCurTick(kStart);
    TestNode n;
    n.node.expiry_tick = kStart + delta;
    w.Insert(&n.node);

    WheelNode out;
    WheelListInit(&out);
    // One tick short: nothing may fire.
    w.Advance(kStart + delta - 1, &out);
    EXPECT_TRUE(WheelListEmpty(&out)) << "fired early";
    // The exact tick: the node must come out.
    w.Advance(kStart + delta, &out);
    EXPECT_EQ(Collect(&out).size(), 1u) << "missed its tick";
    EXPECT_EQ(w.size(), 0u);
  }
}

// Expiries beyond the 64^4-tick horizon park at the top level and re-bucket on
// cascade instead of firing early.
TEST(TimingWheel, BeyondHorizonParksAndReBuckets) {
  TimingWheel w;
  w.InitCurTick(0);
  const uint64_t kHorizon = 1ull << 24;  // 64^4
  TestNode n;
  n.node.expiry_tick = kHorizon + 5000;
  w.Insert(&n.node);

  WheelNode out;
  WheelListInit(&out);
  // NextEventTick points at the park slot (an occupancy event, not a fire).
  uint64_t park = w.NextEventTick();
  EXPECT_NE(park, TimingWheel::kNoEvent);
  EXPECT_LT(park, kHorizon + 5000);
  w.Advance(kHorizon + 4999, &out);
  EXPECT_TRUE(WheelListEmpty(&out)) << "fired early from the park slot";
  w.Advance(kHorizon + 5000, &out);
  EXPECT_EQ(Collect(&out).size(), 1u);
}

// Remove is O(1): it clears a slot's occupancy bit when the slot empties, so
// NextEventTick stays exact. A wheel that lost nodes to Remove reports the
// same next events, and delivers the same nodes at the same ticks, as a wheel
// that only ever held the survivors.
TEST(TimingWheel, RemoveKeepsOccupancyAndNextEventTickExact) {
  TimingWheel w;
  w.InitCurTick(0);
  TestNode a, b, c;
  a.node.expiry_tick = 10;
  b.node.expiry_tick = 10;   // shares a's level-0 slot
  c.node.expiry_tick = 100;  // level 1: processed at its 64-tick boundary
  w.Insert(&a.node);
  w.Insert(&b.node);
  w.Insert(&c.node);
  EXPECT_EQ(w.NextEventTick(), 10u);
  w.Remove(&a.node);  // b still holds the slot
  EXPECT_EQ(w.NextEventTick(), 10u);
  w.Remove(&b.node);  // the slot empties
  EXPECT_EQ(w.NextEventTick(), 64u);
  w.Remove(&c.node);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.NextEventTick(), TimingWheel::kNoEvent);

  SplitMix64 rng(0xca11);
  const uint64_t kStart = 1'000'000;
  constexpr int kNodes = 2048;
  TimingWheel pruned, survivors;
  pruned.InitCurTick(kStart);
  survivors.InitCurTick(kStart);
  std::vector<TestNode> all(kNodes), kept(kNodes);
  std::vector<bool> keep(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    // Near, far and beyond-horizon expiries, as in RandomizedExactExpiry.
    uint64_t expiry =
        kStart + 1 + rng.NextBounded(1ull << (6 + rng.NextBounded(20)));
    all[i].node.expiry_tick = expiry;
    kept[i].node.expiry_tick = expiry;
    pruned.Insert(&all[i].node);
    keep[i] = rng.NextBounded(2) == 0;
    if (keep[i]) {
      survivors.Insert(&kept[i].node);
    }
  }
  for (int i = 0; i < kNodes; ++i) {
    if (!keep[i]) {
      pruned.Remove(&all[i].node);
    }
  }
  ASSERT_EQ(pruned.size(), survivors.size());
  uint64_t now = kStart;
  while (survivors.size() > 0) {
    ASSERT_EQ(pruned.NextEventTick(), survivors.NextEventTick()) << now;
    now += 1 + rng.NextBounded(3000);
    WheelNode out_pruned, out_survivors;
    WheelListInit(&out_pruned);
    WheelListInit(&out_survivors);
    pruned.Advance(now, &out_pruned);
    survivors.Advance(now, &out_survivors);
    std::vector<TestNode*> got = Collect(&out_pruned);
    std::vector<TestNode*> want = Collect(&out_survivors);
    ASSERT_EQ(got.size(), want.size()) << now;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k] - all.data(), want[k] - kept.data());
    }
  }
  EXPECT_EQ(pruned.size(), 0u);
  EXPECT_EQ(pruned.NextEventTick(), TimingWheel::kNoEvent);
}

TEST(TimingWheel, NextEventTickIsExactAcrossLevels) {
  TimingWheel w;
  w.InitCurTick(100);
  TestNode n;
  n.node.expiry_tick = 5000;  // level 1: slot holds ticks [4096, 8192)
  w.Insert(&n.node);
  // The wheel can only promise the slot boundary for higher levels; it must
  // never report an event *after* the true expiry.
  uint64_t next = w.NextEventTick();
  EXPECT_GT(next, 100u);
  EXPECT_LE(next, 5000u);
}

// Randomized property: every node comes out at exactly its (clamped) expiry —
// Advance(t) delivers node n in the window (prev_cur, t] iff expiry' <= t.
TEST(TimingWheel, RandomizedExactExpiry) {
  SplitMix64 rng(0x5eed);
  TimingWheel w;
  uint64_t cur = 1'000'000;
  w.InitCurTick(cur);
  constexpr int kNodes = 4096;
  std::vector<TestNode> nodes(kNodes);
  for (TestNode& n : nodes) {
    // Mix of near, far, and beyond-horizon expiries.
    uint64_t delta = rng.NextBounded(1ull << (6 + rng.NextBounded(20)));
    n.armed_expiry = cur + 1 + delta;
    n.node.expiry_tick = n.armed_expiry;
    w.Insert(&n.node);
  }
  size_t fired = 0;
  uint64_t prev = cur;
  while (w.size() > 0) {
    uint64_t step = 1 + rng.NextBounded(3000);
    uint64_t now = prev + step;
    WheelNode out;
    WheelListInit(&out);
    w.Advance(now, &out);
    for (TestNode* n : Collect(&out)) {
      EXPECT_GT(n->armed_expiry, prev) << "fired in an earlier window";
      EXPECT_LE(n->armed_expiry, now) << "fired before its expiry";
      ++fired;
    }
    prev = now;
  }
  EXPECT_EQ(fired, static_cast<size_t>(kNodes));
}

// ---- Sharded engine regressions ----------------------------------------------

std::atomic<int> g_cb_count{0};

void CountCb(void*, uint64_t) { g_cb_count.fetch_add(1); }

// The PR 4 ack-protocol contract: once a one-shot has fired (or is firing),
// timer_cancel returns -1 so the waiter knows an ack is owed. Regression for
// the stale-fire races flushed out by the shakedown sweep.
TEST(WheelEngine, FiredOneShotCancelReturnsMinusOne) {
  g_cb_count.store(0);
  timer_id_t id = timer_arm_callback(1 * kMs, &CountCb, nullptr, 0);
  ASSERT_NE(id, kInvalidTimerId);
  int64_t deadline = MonotonicNowNs() + 2'000 * kMs;
  while (g_cb_count.load() == 0 && MonotonicNowNs() < deadline) {
    thread_yield();
  }
  ASSERT_EQ(g_cb_count.load(), 1);
  EXPECT_EQ(timer_cancel(id), -1);  // fired: slot may already be recycled
  EXPECT_EQ(timer_cancel(id), -1);  // and stays -1 on a double cancel
}

TEST(WheelEngine, CancelledOneShotNeverFires) {
  g_cb_count.store(0);
  timer_id_t id = timer_arm_callback(50 * kMs, &CountCb, nullptr, 0);
  ASSERT_NE(id, kInvalidTimerId);
  EXPECT_EQ(timer_cancel(id), 0);   // armed -> unlinked: fire suppressed
  EXPECT_EQ(timer_cancel(id), -1);  // second cancel of the same id
  thread_sleep_ms(80);
  EXPECT_EQ(g_cb_count.load(), 0);
}

TEST(WheelEngine, JunkIdsAreRejected) {
  EXPECT_EQ(timer_cancel(0), -1);
  EXPECT_EQ(timer_cancel(~0ull), -1);
  EXPECT_EQ(timer_cancel(0xdeadbeefull), -1);
  // A never-armed id with plausible field values (gen 1, shard 0, index 0
  // of an unallocated chunk region).
  EXPECT_EQ(timer_cancel((1ull << 24) | (999'999ull << 4)), -1);
}

TEST(WheelEngine, PeriodicCallbackRefiresUntilCancelled) {
  g_cb_count.store(0);
  timer_id_t id = timer_arm_callback_periodic(2 * kMs, 2 * kMs, &CountCb,
                                              nullptr, 0);
  ASSERT_NE(id, kInvalidTimerId);
  int64_t deadline = MonotonicNowNs() + 2'000 * kMs;
  while (g_cb_count.load() < 3 && MonotonicNowNs() < deadline) {
    thread_yield();
  }
  EXPECT_GE(g_cb_count.load(), 3);
  int rc = timer_cancel(id);
  EXPECT_TRUE(rc == 0 || rc == -1) << rc;  // -1 iff a fire was in flight
  thread_sleep_ms(10);
  int after = g_cb_count.load();
  thread_sleep_ms(20);
  EXPECT_LE(g_cb_count.load(), after + 1);  // at most one in-flight fire
}

struct SelfCancelCtx {
  std::atomic<uint64_t> id{0};
  std::atomic<int> count{0};
  std::atomic<int> cancel_rc{123};
};

void SelfCancelCb(void* cookie, uint64_t) {
  auto* ctx = static_cast<SelfCancelCtx*>(cookie);
  if (ctx->count.fetch_add(1) + 1 == 2) {
    // The idiomatic self-disarm: cancel from inside the fire. The entry is in
    // the Firing state, so the cancel must report -1 and suppress the re-arm.
    uint64_t id;
    while ((id = ctx->id.load()) == 0) {
    }
    ctx->cancel_rc.store(timer_cancel(id));
  }
}

TEST(WheelEngine, CancelFromInsideCallbackStopsPeriodic) {
  SelfCancelCtx ctx;
  timer_id_t id = timer_arm_callback_periodic(2 * kMs, 2 * kMs, &SelfCancelCb,
                                              &ctx, 0);
  ASSERT_NE(id, kInvalidTimerId);
  ctx.id.store(id);
  // The callback bumps count before it cancels and stores cancel_rc, so wait
  // for both.
  int64_t deadline = MonotonicNowNs() + 2'000 * kMs;
  while ((ctx.count.load() < 2 || ctx.cancel_rc.load() == 123) &&
         MonotonicNowNs() < deadline) {
    thread_yield();
  }
  ASSERT_EQ(ctx.count.load(), 2);
  EXPECT_EQ(ctx.cancel_rc.load(), -1);
  thread_sleep_ms(30);
  EXPECT_EQ(ctx.count.load(), 2);  // re-arm suppressed
}

// Rejected argument shapes for the periodic arm.
TEST(WheelEngine, PeriodicRejectsBadArguments) {
  EXPECT_EQ(timer_arm_callback_periodic(1 * kMs, 0, &CountCb, nullptr, 0),
            kInvalidTimerId);
  EXPECT_EQ(timer_arm_callback_periodic(1 * kMs, -1, &CountCb, nullptr, 0),
            kInvalidTimerId);
  EXPECT_EQ(timer_arm_callback_periodic(-1, 1 * kMs, &CountCb, nullptr, 0),
            kInvalidTimerId);
  EXPECT_EQ(timer_arm_callback_periodic(1 * kMs, 1 * kMs, nullptr, nullptr, 0),
            kInvalidTimerId);
}

// Cancel unlinks an armed entry and puts it straight back on its shard's free
// list: a burst of cancels recycles every entry before the next sweep, and a
// second burst reuses them instead of carving fresh ones.
TEST(WheelEngine, CancelRecyclesEntryAtOnce) {
  constexpr int kBurst = 5000;
  TimerEngineStats before = timer_engine_stats();
  std::vector<timer_id_t> ids;
  ids.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    timer_id_t id = timer_arm_callback(10'000 * kMs, &CountCb, nullptr, 0);
    ASSERT_NE(id, kInvalidTimerId);
    ids.push_back(id);
  }
  for (timer_id_t id : ids) {
    EXPECT_EQ(timer_cancel(id), 0);
  }
  TimerEngineStats after = timer_engine_stats();
  EXPECT_GE(after.reaps - before.reaps, static_cast<uint64_t>(kBurst));
  EXPECT_GE(after.cancels - before.cancels, static_cast<uint64_t>(kBurst));
  EXPECT_LE(after.live, before.live);
  EXPECT_EQ(after.tombstones, 0u);

  // Second burst: the shard free lists now hold thousands of entries, so at
  // most a stray chunk carve may happen (thread migration can shift the home
  // shard), never a full re-allocation.
  TimerEngineStats mid = timer_engine_stats();
  for (int i = 0; i < 1000; ++i) {
    timer_id_t id = timer_arm_callback(10'000 * kMs, &CountCb, nullptr, 0);
    ASSERT_NE(id, kInvalidTimerId);
    EXPECT_EQ(timer_cancel(id), 0);
  }
  TimerEngineStats reuse = timer_engine_stats();
  EXPECT_LT(reuse.pool_allocated - mid.pool_allocated, 1000u)
      << "no pool reuse: every arm carved a fresh entry";
}

TEST(WheelEngine, StatsLineInProcessState) {
  std::string s = FormatProcessState();
  EXPECT_NE(s.find("TIMER shards=" +
                   std::to_string(timer_engine_stats().shards)),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("cascades="), std::string::npos);
}

// ---- fork1() shard repair ----------------------------------------------------

void ForkChildExitCb(void* cookie, uint64_t) {
  static_cast<std::atomic<int>*>(cookie)->store(1);
}

// The child's wheel shards are rebuilt from scratch (parent deadlines are
// LWP-serviced state the child must not inherit); timers armed after fork1()
// fire normally.
TEST(WheelEngine, Fork1RepairsShards) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "fork is unsupported under TSan";
#else
  // Arm a long parent timer so the child inherits non-empty wheel memory.
  timer_id_t parent_timer =
      timer_arm_callback(10'000 * kMs, &CountCb, nullptr, 0);
  ASSERT_NE(parent_timer, kInvalidTimerId);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the repaired engine must arm, fire, and sleep from scratch.
    TimerEngineStats ts = timer_engine_stats();
    if (ts.live != 0) _exit(2);  // inherited entries survived the repair
    static std::atomic<int> fired{0};
    if (timer_arm_callback(1 * kMs, &ForkChildExitCb, &fired, 0) ==
        kInvalidTimerId) {
      _exit(3);
    }
    int64_t deadline = MonotonicNowNs() + 2'000 * kMs;
    while (fired.load() == 0 && MonotonicNowNs() < deadline) {
      thread_yield();
    }
    if (fired.load() != 1) _exit(4);
    thread_sleep_ms(1);  // thread_sleep rides the rebuilt wheel too
    _exit(0);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  // The parent engine is untouched: the long timer is still cancellable.
  EXPECT_EQ(timer_cancel(parent_timer), 0);
#endif
}

// ---- Seed sweep over the timed-wait paths ------------------------------------

constexpr uint32_t kSchedOps =
    inject::kOpYield | inject::kOpDelay | inject::kOpSteal;

// sema_p_timed credit conservation with timeouts racing posts: every credit is
// consumed exactly once no matter how the wheel's fire/cancel interleaves with
// the waiters (the kTimerWheel perturb point fires inside the sweep/cancel).
TEST(WheelSweep, SemaTimedWaitsRaceTheWheel) {
  RunSweep("timer-wheel", "sema-timed-wheel", 0.10, kSchedOps, [](SplitMix64& rng) {
    sema_t s;
    sema_init(&s, 0, 0, nullptr);
    constexpr int kWorkers = 3, kIters = 6, kCredits = 10;
    std::atomic<int> successes{0};
    std::vector<thread_id_t> ids;
    for (int t = 0; t < kWorkers; ++t) {
      const int64_t timeout_ns =
          static_cast<int64_t>(300 + rng.NextBounded(1200)) * kUs;
      ids.push_back(Spawn([&s, &successes, timeout_ns] {
        for (int i = 0; i < kIters; ++i) {
          successes.fetch_add(sema_p_timed(&s, timeout_ns));
        }
      }));
    }
    for (int i = 0; i < kCredits; ++i) {
      sema_v(&s);
      if ((i & 3) == 0) {
        thread_sleep_ns(static_cast<int64_t>(rng.NextBounded(400)) * kUs);
      }
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    int drained = 0;
    while (sema_tryp(&s)) {
      ++drained;
    }
    EXPECT_EQ(successes.load() + drained, kCredits);
  });
}

// cv_timedwait consumers under the paper's re-test rule: all items consumed,
// timeouts are invisible.
TEST(WheelSweep, CvTimedWaitsRaceTheWheel) {
  RunSweep("timer-wheel", "cv-timed-wheel", 0.10, kSchedOps, [](SplitMix64& rng) {
    mutex_t m;
    condvar_t cv;
    mutex_init(&m, 0, nullptr);
    cv_init(&cv, 0, nullptr);
    constexpr int kItems = 24;
    int items = 0;      // guarded by m
    bool done = false;  // guarded by m
    std::atomic<int> consumed{0};
    const int64_t wait_ns =
        static_cast<int64_t>(200 + rng.NextBounded(900)) * kUs;
    std::vector<thread_id_t> consumers;
    for (int t = 0; t < 2; ++t) {
      consumers.push_back(Spawn([&] {
        for (;;) {
          mutex_enter(&m);
          while (items == 0 && !done) {
            cv_timedwait(&cv, &m, wait_ns);  // timeouts just re-test
          }
          if (items > 0) {
            --items;
            mutex_exit(&m);
            consumed.fetch_add(1);
            continue;
          }
          mutex_exit(&m);
          return;
        }
      }));
    }
    thread_id_t producer = Spawn([&] {
      for (int i = 0; i < kItems; ++i) {
        mutex_enter(&m);
        ++items;
        cv_signal(&cv);
        mutex_exit(&m);
        if ((i & 7) == 0) {
          thread_sleep_ns(static_cast<int64_t>(rng.NextBounded(300)) * kUs);
        }
      }
    });
    EXPECT_TRUE(Join(producer));
    mutex_enter(&m);
    done = true;
    cv_broadcast(&cv);
    mutex_exit(&m);
    for (thread_id_t id : consumers) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(consumed.load(), kItems);
  });
}

// net_read_deadline rides NetTimeoutFire on the wheel: short deadlines race
// the writer; ETIME retries must never lose or duplicate a byte.
TEST(WheelSweep, NetDeadlinesRaceTheWheel) {
  RunSweep("timer-wheel", "net-deadline-wheel", 0.10, kSchedOps, [](SplitMix64& rng) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(net_register(fds[0]), 0);
    ASSERT_EQ(net_register(fds[1]), 0);
    constexpr int kBytes = 16;
    std::atomic<int> received{0};
    std::atomic<int> violations{0};
    const uint64_t jitter = rng.NextBounded(700);
    thread_id_t reader = Spawn([&] {
      unsigned char buf[4];
      int got = 0;
      while (got < kBytes) {
        ssize_t n = net_read_deadline(fds[1], buf, sizeof(buf),
                                      2 * kMs);  // deadline races the writer
        if (n > 0) {
          got += static_cast<int>(n);
        } else if (!(n < 0 && thread_errno() == ETIME)) {
          violations.fetch_add(1);
          break;
        }
      }
      received.store(got);
    });
    thread_id_t writer = Spawn([&] {
      unsigned char b = 0x5a;
      for (int i = 0; i < kBytes; ++i) {
        if (net_write_deadline(fds[0], &b, 1, 500 * kMs) != 1) {
          violations.fetch_add(1);
          return;
        }
        if ((i & 3) == 0) {
          thread_sleep_ns(static_cast<int64_t>(jitter) * kUs);
        }
      }
    });
    EXPECT_TRUE(Join(writer));
    EXPECT_TRUE(Join(reader));
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(received.load(), kBytes);
    net_unregister(fds[0]);
    net_unregister(fds[1]);
    close(fds[0]);
    close(fds[1]);
  });
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  // Several LWPs so arms spread across wheel shards and the timed waits
  // genuinely race the ticker.
  config.initial_pool_lwps = 4;
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
