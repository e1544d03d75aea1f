// Tests for the run queue and scheduler-level behavior (yield, runtime pool
// bookkeeping, introspection hooks into scheduling state).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "src/core/run_queue.h"
#include "src/core/runtime.h"
#include "src/core/tcb.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

TEST(RunQueue, StartsEmpty) {
  RunQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.Pop(), nullptr);
}

TEST(RunQueue, FifoWithinOnePriority) {
  RunQueue q;
  Tcb tcbs[3];
  for (auto& t : tcbs) {
    t.priority.store(5);
    q.Push(&t);
  }
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.Pop(), &tcbs[0]);
  EXPECT_EQ(q.Pop(), &tcbs[1]);
  EXPECT_EQ(q.Pop(), &tcbs[2]);
  EXPECT_TRUE(q.Empty());
}

TEST(RunQueue, HighestPriorityFirst) {
  RunQueue q;
  Tcb low, mid, high;
  low.priority.store(1);
  mid.priority.store(64);
  high.priority.store(127);
  q.Push(&low);
  q.Push(&high);
  q.Push(&mid);
  EXPECT_EQ(q.Pop(), &high);
  EXPECT_EQ(q.Pop(), &mid);
  EXPECT_EQ(q.Pop(), &low);
}

TEST(RunQueue, PriorityClampedToRange) {
  RunQueue q;
  Tcb over, zero;
  over.priority.store(100000);
  zero.priority.store(0);
  q.Push(&over);
  q.Push(&zero);
  EXPECT_EQ(q.Pop(), &over);  // clamped to 127, still highest
  EXPECT_EQ(q.Pop(), &zero);
}

TEST(RunQueue, PushFrontPreempts) {
  RunQueue q;
  Tcb a, b;
  a.priority.store(10);
  b.priority.store(10);
  q.Push(&a);
  q.PushFront(&b);
  EXPECT_EQ(q.Pop(), &b);
  EXPECT_EQ(q.Pop(), &a);
}

TEST(RunQueue, RemoveSpecificThread) {
  RunQueue q;
  Tcb tcbs[3];
  for (auto& t : tcbs) {
    t.priority.store(7);
    q.Push(&t);
  }
  EXPECT_TRUE(q.Remove(&tcbs[1]));
  EXPECT_FALSE(q.Remove(&tcbs[1]));  // already gone
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.Pop(), &tcbs[0]);
  EXPECT_EQ(q.Pop(), &tcbs[2]);
}

TEST(RunQueue, RemoveLastClearsLevelBitmap) {
  RunQueue q;
  Tcb a, b;
  a.priority.store(40);
  b.priority.store(3);
  q.Push(&a);
  q.Push(&b);
  EXPECT_TRUE(q.Remove(&a));
  EXPECT_EQ(q.Pop(), &b);  // bitmap for level 40 must be clear
  EXPECT_EQ(q.Pop(), nullptr);
}

TEST(RunQueue, ManyLevelsInterleaved) {
  RunQueue q;
  std::vector<Tcb> tcbs(128);
  for (int i = 0; i < 128; ++i) {
    tcbs[i].priority.store(i);
    q.Push(&tcbs[i]);
  }
  for (int i = 127; i >= 0; --i) {
    EXPECT_EQ(q.Pop(), &tcbs[i]);
  }
}

// ---------------------------------------------------------------------------
// ShardedRunQueue (standalone instance; shard tags stamped into Tcbs the same
// way the runtime's instance does it).
// ---------------------------------------------------------------------------

TEST(ShardedRunQueue, StrictPriorityViaOverflow) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(4);
  q->AttachLwp(0);
  q->AttachLwp(1);
  Tcb normal, boosted;
  normal.priority.store(60);
  boosted.priority.store(100);  // above kSharedPriority: routed to overflow
  EXPECT_TRUE(q->Enqueue(&normal, /*waker_shard=*/0, /*wake_affinity=*/false));
  EXPECT_TRUE(q->Enqueue(&boosted, /*waker_shard=*/1, /*wake_affinity=*/false));
  EXPECT_EQ(q->OverflowDepth(), 1u);
  // Shard 0's dispatcher takes the boosted thread first even though it was
  // enqueued from another shard: strict global priority order.
  EXPECT_EQ(q->PopLocal(0), &boosted);
  EXPECT_EQ(q->PopLocal(0), &normal);
  EXPECT_TRUE(q->Empty());
}

TEST(ShardedRunQueue, NextBoxIsLifoAndDisplacesToQueueFront) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(2);
  q->AttachLwp(0);
  Tcb first, second;
  first.priority.store(50);
  second.priority.store(50);
  // Pure box placement: owner LWP is the waker, no extra wake wanted.
  EXPECT_FALSE(q->Enqueue(&first, 0, /*wake_affinity=*/true));
  EXPECT_FALSE(q->Empty());
  // Second affine wake displaces the first into the queue (stealable), which
  // does want a wake.
  EXPECT_TRUE(q->Enqueue(&second, 0, /*wake_affinity=*/true));
  EXPECT_EQ(q->PopLocal(0), &second);  // LIFO: most recent wake runs next
  EXPECT_EQ(q->PopLocal(0), &first);   // displaced to the front of its level
  EXPECT_TRUE(q->Empty());
}

TEST(ShardedRunQueue, BoxOccupantLosesToHigherPriorityQueueWork) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(2);
  q->AttachLwp(0);
  Tcb boxed, urgent;
  boxed.priority.store(40);
  urgent.priority.store(60);
  EXPECT_FALSE(q->Enqueue(&boxed, 0, /*wake_affinity=*/true));
  EXPECT_TRUE(q->Enqueue(&urgent, 0, /*wake_affinity=*/false));
  EXPECT_EQ(q->PopLocal(0), &urgent);  // queue outranks the box occupant
  EXPECT_EQ(q->PopLocal(0), &boxed);   // demoted occupant still dispatched
  EXPECT_TRUE(q->Empty());
}

TEST(ShardedRunQueue, StealTakesHalfHighestPriorityFirst) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(4);
  q->AttachLwp(0);
  q->AttachLwp(1);
  Tcb tcbs[6];
  for (int i = 0; i < 6; ++i) {
    tcbs[i].priority.store(10 * (i + 1));  // 10..60, all below kSharedPriority
    EXPECT_TRUE(q->Enqueue(&tcbs[i], 0, /*wake_affinity=*/false));
  }
  EXPECT_EQ(q->ShardDepth(0), 6u);
  // The thief runs the best stolen thread and files the rest locally.
  EXPECT_EQ(q->Steal(1), &tcbs[5]);  // priority 60
  EXPECT_EQ(q->ShardDepth(0), 3u);   // half of six left behind
  EXPECT_EQ(q->ShardDepth(1), 2u);
  EXPECT_EQ(q->Steals(), 1u);
  EXPECT_EQ(q->StolenThreads(), 3u);
  EXPECT_EQ(q->PopLocal(1), &tcbs[4]);
  EXPECT_EQ(q->PopLocal(1), &tcbs[3]);
  EXPECT_EQ(q->PopLocal(0), &tcbs[2]);
  EXPECT_EQ(q->PopLocal(0), &tcbs[1]);
  EXPECT_EQ(q->PopLocal(0), &tcbs[0]);
  EXPECT_TRUE(q->Empty());
}

TEST(ShardedRunQueue, RemoveChasesQueueAndBox) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(2);
  q->AttachLwp(0);
  Tcb queued, boxed;
  queued.priority.store(30);
  boxed.priority.store(30);
  EXPECT_TRUE(q->Enqueue(&queued, 0, /*wake_affinity=*/false));
  EXPECT_FALSE(q->Enqueue(&boxed, 0, /*wake_affinity=*/true));
  EXPECT_TRUE(q->Remove(&queued));   // shard-queue path
  EXPECT_FALSE(q->Remove(&queued));  // already gone
  EXPECT_TRUE(q->Remove(&boxed));    // box CAS path
  EXPECT_FALSE(q->Remove(&boxed));
  EXPECT_TRUE(q->Empty());
  EXPECT_EQ(q->PopLocal(0), nullptr);
}

TEST(ShardedRunQueue, DetachingLastLwpDrainsShardToOverflow) {
  auto q = std::make_unique<ShardedRunQueue>();
  q->Init(2);
  q->AttachLwp(0);
  q->AttachLwp(1);
  Tcb boxed, queued;
  boxed.priority.store(20);
  queued.priority.store(20);
  EXPECT_FALSE(q->Enqueue(&boxed, 0, /*wake_affinity=*/true));
  EXPECT_TRUE(q->Enqueue(&queued, 0, /*wake_affinity=*/false));
  q->DetachLwp(0);  // last LWP of shard 0: nothing may be stranded there
  EXPECT_EQ(q->ShardDepth(0), 0u);
  EXPECT_EQ(q->OverflowDepth(), 2u);
  EXPECT_EQ(q->PopLocal(1), &boxed);
  EXPECT_EQ(q->PopLocal(1), &queued);
  EXPECT_TRUE(q->Empty());
  q->AttachLwp(0);  // restore for any later use of the instance
}

TEST(Setprio, QueuedRunnableThreadIsRequeuedAtNewLevel) {
  // One pool LWP, occupied by a spinner with no safe points: everything else
  // stays queued until the spinner is released, so the queue order under a
  // priority change is observable deterministically.
  thread_setconcurrency(1);
  // A shrink only marks the other pool LWPs retiring. Wait until introspection
  // lists one pool LWP and one shard with an LWP: a retiring LWP that has not
  // left its dispatch loop (or not even started) could run `a` before the
  // priority change, or hold a shard the spinner lands in.
  ASSERT_TRUE(sunmt_test::WaitUntil(
      [] {
        std::vector<LwpSnapshot> lwps;
        std::vector<ShardSnapshot> shards;
        SnapshotLwps(&lwps);
        SnapshotShards(&shards);
        int attached = 0;
        for (const ShardSnapshot& shard : shards) {
          attached += shard.live_lwps;
        }
        return attached == 1 &&
               std::count_if(lwps.begin(), lwps.end(),
                             [](const LwpSnapshot& l) { return l.pool; }) == 1;
      },
      5'000'000'000));
  static std::atomic<bool> released;
  static std::vector<char> order;
  released.store(false);
  order.clear();
  thread_id_t spinner = Spawn(
      [&] {
        while (!released.load(std::memory_order_acquire)) {
        }
      },
      THREAD_WAIT);
  thread_id_t a = Spawn([&] { order.push_back('a'); }, THREAD_WAIT);
  thread_id_t b = Spawn([&] { order.push_back('b'); }, THREAD_WAIT);
  // Both queued at the default priority, FIFO a-then-b. Raising b must move
  // it to the new level (here: the shared overflow queue) — with the old
  // enqueue-time snapshot it would still run after a.
  EXPECT_EQ(thread_priority(b, 80), 64);
  released.store(true, std::memory_order_release);
  EXPECT_TRUE(Join(spinner));
  EXPECT_TRUE(Join(a));
  EXPECT_TRUE(Join(b));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'b');
  EXPECT_EQ(order[1], 'a');
  thread_setconcurrency(0);
}

TEST(Yield, RoundRobinsEqualPriorityThreads) {
  // Two cooperating threads on the shared pool interleave via yields.
  static std::vector<int> trace;
  trace.clear();
  static std::atomic<int> running;
  running.store(0);
  struct Tag {
    int value;
  };
  static Tag t1{1}, t2{2};
  auto entry = [](void* p) {
    int tag = static_cast<Tag*>(p)->value;
    running.fetch_add(1);
    while (running.load() < 2) {
      thread_yield();
    }
    for (int i = 0; i < 3; ++i) {
      trace.push_back(tag);
      thread_yield();
    }
  };
  thread_setconcurrency(1);  // deterministic interleaving on one LWP
  thread_id_t a = thread_create(nullptr, 0, entry, &t1, THREAD_WAIT);
  thread_id_t b = thread_create(nullptr, 0, entry, &t2, THREAD_WAIT);
  EXPECT_TRUE(Join(a));
  EXPECT_TRUE(Join(b));
  ASSERT_EQ(trace.size(), 6u);
  // Strict alternation once both are in the loop.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_NE(trace[i], trace[i - 1]) << "at " << i;
  }
  thread_setconcurrency(0);
}

TEST(Yield, NoOpWhenQueueEmpty) {
  // Yield with nothing runnable returns quickly; smoke-test a burst.
  for (int i = 0; i < 1000; ++i) {
    thread_yield();
  }
  SUCCEED();
}

TEST(Runtime, PoolSizeReflectsSetconcurrency) {
  thread_setconcurrency(3);
  EXPECT_GE(Runtime::Get().pool_size(), 3);
  thread_setconcurrency(0);
}

TEST(Runtime, SnapshotLwpsSeesPool) {
  thread_setconcurrency(2);
  // A new pool LWP enters the snapshot once its kernel thread has started.
  EXPECT_TRUE(sunmt_test::WaitUntil(
      [] {
        std::vector<LwpSnapshot> lwps;
        SnapshotLwps(&lwps);
        return std::count_if(lwps.begin(), lwps.end(),
                             [](const LwpSnapshot& l) { return l.pool; }) >= 2;
      },
      5ll * 1000 * 1000 * 1000));
  thread_setconcurrency(0);
}

TEST(Runtime, ThreadCountTracksLiveThreads) {
  size_t base = Runtime::Get().ThreadCount();
  sema_t gate = {};
  struct Shared {
    sema_t* gate;
  } shared{&gate};
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(thread_create(
        nullptr, 0, [](void* p) { sema_p(static_cast<Shared*>(p)->gate); }, &shared,
        THREAD_WAIT));
  }
  // All five alive (blocked) now.
  for (int i = 0; i < 20; ++i) {
    thread_yield();
  }
  EXPECT_EQ(Runtime::Get().ThreadCount(), base + 5);
  for (int i = 0; i < 5; ++i) {
    sema_v(&gate);
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(Runtime::Get().ThreadCount(), base);
}

TEST(Runtime, ExitedNonWaitableThreadsAreReclaimed) {
  size_t base = Runtime::Get().ThreadCount();
  static sema_t done;
  sema_init(&done, 0, 0, nullptr);
  for (int i = 0; i < 50; ++i) {
    thread_create(nullptr, 0, [](void*) { sema_v(&done); }, nullptr, 0);
  }
  for (int i = 0; i < 50; ++i) {
    sema_p(&done);
  }
  for (int i = 0; i < 20; ++i) {
    thread_yield();  // let the last exit commits run
  }
  EXPECT_EQ(Runtime::Get().ThreadCount(), base);
}

}  // namespace
}  // namespace sunmt
