// Tests for the Figure-4 thread interface: creation flags, wait, ids,
// priorities, stop/continue, caller-supplied stacks.

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

constexpr int64_t kSec = 1000 * 1000 * 1000;

TEST(ThreadCreate, RunsAndJoins) {
  std::atomic<int> ran{0};
  thread_id_t id = Spawn([&] { ran.store(1); });
  ASSERT_NE(id, kInvalidThreadId);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadCreate, ArgumentIsDelivered) {
  struct Arg {
    int in;
    std::atomic<int> out;
  } arg{1234, {0}};
  thread_id_t id = thread_create(
      nullptr, 0,
      [](void* p) {
        auto* a = static_cast<Arg*>(p);
        a->out.store(a->in);
      },
      &arg, THREAD_WAIT);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(arg.out.load(), 1234);
}

TEST(ThreadCreate, NullFuncFails) {
  EXPECT_EQ(thread_create(nullptr, 0, nullptr, nullptr, 0), kInvalidThreadId);
}

TEST(ThreadCreate, IdsAreUniqueAndMeaningfulWithinProcess) {
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(Spawn([] {}));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(ids[i], kInvalidThreadId);
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
}

TEST(ThreadCreate, GetIdMatchesCreateResult) {
  struct Shared {
    std::atomic<uint64_t> seen{0};
  } shared;
  thread_id_t id = thread_create(
      nullptr, 0,
      [](void* p) { static_cast<Shared*>(p)->seen.store(thread_get_id()); }, &shared,
      THREAD_WAIT);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(shared.seen.load(), id);
}

TEST(ThreadCreate, CallerSuppliedStack) {
  // The paper: language run-times control thread storage. 64 KiB is plenty for
  // the TCB + TLS carve + frames.
  constexpr size_t kSize = 64 * 1024;
  static char stack[kSize] __attribute__((aligned(64)));
  std::atomic<int> ran{0};
  thread_id_t id = thread_create(
      stack, kSize, [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &ran,
      THREAD_WAIT);
  ASSERT_NE(id, kInvalidThreadId);
  // The paper: a caller stack "may be reclaimed when thread_wait() returns".
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(ran.load(), 1);
  memset(stack, 0, kSize);  // safe to reuse now
}

TEST(ThreadCreate, CallerStackTooSmallFails) {
  static char tiny[256];
  EXPECT_EQ(thread_create(tiny, sizeof(tiny), [](void*) {}, nullptr, 0), kInvalidThreadId);
}

TEST(ThreadCreate, CallerStackWithZeroSizeFails) {
  static char stack[64 * 1024];
  EXPECT_EQ(thread_create(stack, 0, [](void*) {}, nullptr, 0), kInvalidThreadId);
}

TEST(ThreadCreate, CustomStackSizeFromPackage) {
  std::atomic<int> ran{0};
  thread_id_t id = thread_create(
      nullptr, 1024 * 1024, [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); },
      &ran, THREAD_WAIT);
  ASSERT_NE(id, kInvalidThreadId);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadCreate, PriorityInheritedFromCreator) {
  int old = thread_priority(0, 99);
  ASSERT_GE(old, 0);
  struct Shared {
    std::atomic<int> child_prio{-1};
  } shared;
  thread_id_t id = thread_create(
      nullptr, 0,
      [](void* p) {
        // Read own priority by setting it and taking the returned old value.
        static_cast<Shared*>(p)->child_prio.store(thread_priority(0, 99));
      },
      &shared, THREAD_WAIT);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(shared.child_prio.load(), 99);
  thread_priority(0, old);  // restore
}

TEST(ThreadWait, SelfWaitIsAnError) { EXPECT_EQ(thread_wait(thread_get_id()), 0u); }

TEST(ThreadWait, UnknownIdIsAnError) { EXPECT_EQ(thread_wait(99999999), 0u); }

TEST(ThreadWait, NonWaitableThreadIsAnError) {
  static sema_t sems[2];  // [0] = started, [1] = release
  sema_init(&sems[0], 0, 0, nullptr);
  sema_init(&sems[1], 0, 0, nullptr);
  thread_id_t id = thread_create(
      nullptr, 0,
      [](void*) {
        sema_v(&sems[0]);
        sema_p(&sems[1]);
      },
      nullptr, /*flags=*/0);  // no THREAD_WAIT
  ASSERT_NE(id, kInvalidThreadId);
  sema_p(&sems[0]);  // it is alive and not waitable
  EXPECT_EQ(thread_wait(id), kInvalidThreadId);
  sema_v(&sems[1]);  // let it finish
}

TEST(ThreadWait, WaitForAnyReturnsSomeExitedThread) {
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(Spawn([] {}));
  }
  std::vector<thread_id_t> reaped;
  for (int i = 0; i < 4; ++i) {
    thread_id_t got = thread_wait(0);
    ASSERT_NE(got, kInvalidThreadId);
    reaped.push_back(got);
  }
  std::sort(ids.begin(), ids.end());
  std::sort(reaped.begin(), reaped.end());
  EXPECT_EQ(ids, reaped);
}

TEST(ThreadWait, AnyWaitWithNothingWaitableIsAnError) {
  // All waitable threads from prior tests have been reaped.
  EXPECT_EQ(thread_wait(0), kInvalidThreadId);
}

TEST(ThreadWait, WaiterBlocksUntilExit) {
  sema_t gate = {};
  struct Shared {
    sema_t* gate;
    std::atomic<int> order{0};
  } shared{&gate, {}};
  thread_id_t worker = thread_create(
      nullptr, 0,
      [](void* p) {
        auto* s = static_cast<Shared*>(p);
        sema_p(s->gate);
        s->order.store(1);
      },
      &shared, THREAD_WAIT);
  // Let it exit only after we are (about to be) waiting.
  thread_id_t waiter = Spawn([&] {
    thread_id_t got = thread_wait(worker);
    EXPECT_EQ(got, worker);
    EXPECT_EQ(shared.order.load(), 1);
  });
  sema_v(&gate);
  EXPECT_TRUE(Join(waiter));
}

TEST(ThreadStop, CreateStoppedThenContinue) {
  std::atomic<int> ran{0};
  thread_id_t id = thread_create(
      nullptr, 0, [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &ran,
      THREAD_STOP | THREAD_WAIT);
  ASSERT_NE(id, kInvalidThreadId);
  // Give it a generous window: it must NOT run while stopped.
  for (int i = 0; i < 50; ++i) {
    thread_yield();
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(thread_continue(id), 0);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadStop, StopRunnableThread) {
  static std::atomic<bool> done;
  static std::atomic<long> progress;
  done.store(false);
  progress.store(0);
  thread_id_t id = Spawn([&] {
    while (!done.load()) {
      progress.fetch_add(1);
      thread_yield();  // safe points where the stop can land
    }
  });
  while (progress.load() == 0) {
    thread_yield();
  }
  ASSERT_EQ(thread_stop(id), 0);
  long frozen = progress.load();
  usleep(20 * 1000);
  EXPECT_EQ(progress.load(), frozen);  // made no progress while stopped
  ASSERT_EQ(thread_continue(id), 0);
  while (progress.load() == frozen) {
    thread_yield();  // resumed and making progress again
  }
  // Stop/continue once more for coverage of the repeated transition.
  ASSERT_EQ(thread_stop(id), 0);
  ASSERT_EQ(thread_continue(id), 0);
  done.store(true);
  EXPECT_TRUE(Join(id));
}

TEST(ThreadStop, StopBlockedThreadDefersWakeup) {
  sema_t gate = {};
  std::atomic<int> resumed{0};
  struct Shared {
    sema_t* gate;
    std::atomic<int>* resumed;
  } shared{&gate, &resumed};
  thread_id_t id = thread_create(
      nullptr, 0,
      [](void* p) {
        auto* s = static_cast<Shared*>(p);
        sema_p(s->gate);
        s->resumed->store(1);
      },
      &shared, THREAD_WAIT);
  ASSERT_TRUE(WaitForState(id, "BLOCKED", 5 * kSec));
  EXPECT_EQ(thread_stop(id), 0);  // blocked == not running: returns immediately
  sema_v(&gate);                  // wake it: the wakeup must pend, not run it
  EXPECT_TRUE(WaitForState(id, "STOPPED", 5 * kSec));
  EXPECT_EQ(resumed.load(), 0);
  EXPECT_EQ(thread_continue(id), 0);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(resumed.load(), 1);
}

TEST(ThreadStop, UnknownIdFails) {
  EXPECT_EQ(thread_stop(88888888), -1);
  EXPECT_EQ(thread_continue(88888888), -1);
}

TEST(ThreadPriority, ReturnsOldAndRejectsNegative) {
  int old = thread_priority(0, 77);
  ASSERT_GE(old, 0);
  EXPECT_EQ(thread_priority(0, old), 77);
  EXPECT_EQ(thread_priority(0, -1), -1);
}

TEST(ThreadPriority, HigherPriorityDispatchedFirst) {
  // Pin the pool to one LWP and occupy it with a blocker while both workers are
  // made runnable, so the dispatch order is decided purely by priority.
  thread_setconcurrency(1);
  // Retiring LWPs drain asynchronously: wait until the pool really is one LWP,
  // for this test's premise and so later tests sample a settled pool size.
  for (int i = 0; i < 200 && Runtime::Get().pool_size() > 1; ++i) {
    thread_yield();
    struct timespec ts = {0, 5 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  ASSERT_EQ(Runtime::Get().pool_size(), 1);
  static std::atomic<bool> blocker_running;
  static std::atomic<bool> release;
  blocker_running.store(false);
  release.store(false);
  thread_id_t blocker = thread_create(
      nullptr, 0,
      [](void*) {
        blocker_running.store(true);
        while (!release.load()) {
          // Hog the sole pool LWP (the kernel still preempts it so the main
          // thread's own LWP keeps running).
        }
      },
      nullptr, THREAD_WAIT);
  ASSERT_NE(blocker, kInvalidThreadId);
  while (!blocker_running.load()) {
  }

  static std::vector<int> order;
  static mutex_t mu;
  order.clear();
  mutex_init(&mu, 0, nullptr);
  struct Tag {
    int value;
  };
  static Tag lo_tag{1}, hi_tag{2};
  auto entry = [](void* p) {
    mutex_enter(&mu);
    order.push_back(static_cast<Tag*>(p)->value);
    mutex_exit(&mu);
  };
  thread_id_t lo = thread_create(nullptr, 0, entry, &lo_tag, THREAD_STOP | THREAD_WAIT);
  thread_id_t hi = thread_create(nullptr, 0, entry, &hi_tag, THREAD_STOP | THREAD_WAIT);
  ASSERT_GE(thread_priority(lo, 10), 0);
  ASSERT_GE(thread_priority(hi, 100), 0);
  thread_continue(lo);  // enqueued first, but at lower priority
  thread_continue(hi);
  release.store(true);  // blocker drains; the LWP now picks by priority
  EXPECT_TRUE(Join(blocker));
  EXPECT_TRUE(Join(lo));
  EXPECT_TRUE(Join(hi));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // high priority ran first
  EXPECT_EQ(order[1], 1);
  thread_setconcurrency(0);
}

TEST(ThreadBound, BoundThreadRunsOnOwnLwp) {
  int before = Runtime::Get().pool_size();
  std::atomic<int> ran{0};
  thread_id_t id = thread_create(
      nullptr, 0, [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &ran,
      THREAD_BIND_LWP | THREAD_WAIT);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(ran.load(), 1);
  // Bound LWPs are not pool LWPs (thread_setconcurrency does not count them).
  EXPECT_EQ(Runtime::Get().pool_size(), before);
}

TEST(ThreadBound, ManyBoundThreadsSynchronize) {
  constexpr int kThreads = 8;
  sema_t done = {};
  mutex_t mu = {};
  static int counter;
  counter = 0;
  struct Shared {
    sema_t* done;
    mutex_t* mu;
  } shared{&done, &mu};
  for (int i = 0; i < kThreads; ++i) {
    thread_id_t id = thread_create(
        nullptr, 0,
        [](void* p) {
          auto* s = static_cast<Shared*>(p);
          for (int j = 0; j < 100; ++j) {
            mutex_enter(s->mu);
            ++counter;
            mutex_exit(s->mu);
          }
          sema_v(s->done);
        },
        &shared, THREAD_BIND_LWP);
    ASSERT_NE(id, kInvalidThreadId);
  }
  for (int i = 0; i < kThreads; ++i) {
    sema_p(&done);
  }
  EXPECT_EQ(counter, kThreads * 100);
}

TEST(ThreadNewLwp, GrowsThePool) {
  int before = Runtime::Get().pool_size();
  thread_id_t id = Spawn([] {}, THREAD_NEW_LWP | THREAD_WAIT);
  EXPECT_TRUE(Join(id));
  EXPECT_EQ(Runtime::Get().pool_size(), before + 1);
}

TEST(ThreadSetConcurrency, GrowAndShrink) {
  thread_setconcurrency(4);
  EXPECT_GE(Runtime::Get().pool_size(), 4);
  thread_setconcurrency(1);
  // Retiring LWPs drain asynchronously; poll briefly.
  for (int i = 0; i < 200 && Runtime::Get().pool_size() > 1; ++i) {
    thread_yield();
    struct timespec ts = {0, 5 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  EXPECT_EQ(Runtime::Get().pool_size(), 1);
  thread_setconcurrency(0);
  EXPECT_EQ(thread_setconcurrency(-3), -1);
}

TEST(ThreadName, SetAndGetOwnName) {
  EXPECT_EQ(thread_setname(0, "main-thread"), 0);
  char buf[32] = {};
  EXPECT_EQ(thread_getname(0, buf, sizeof(buf)), 0);
  EXPECT_STREQ(buf, "main-thread");
  EXPECT_EQ(thread_setname(0, ""), 0);  // clear
}

TEST(ThreadName, NameOtherThreadAndTruncate) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  thread_id_t worker = Spawn([&] { sema_p(&gate); });
  EXPECT_EQ(thread_setname(worker, "a-very-long-thread-name-that-will-truncate"), 0);
  char buf[64] = {};
  EXPECT_EQ(thread_getname(worker, buf, sizeof(buf)), 0);
  EXPECT_EQ(strlen(buf), 31u);  // 31 chars + NUL
  char tiny[4] = {};
  EXPECT_EQ(thread_getname(worker, tiny, sizeof(tiny)), 0);
  EXPECT_STREQ(tiny, "a-v");
  sema_v(&gate);
  EXPECT_TRUE(Join(worker));
}

TEST(ThreadName, ErrorsOnBadArguments) {
  EXPECT_EQ(thread_setname(0, nullptr), -1);
  EXPECT_EQ(thread_setname(987654321, "x"), -1);
  char buf[8];
  EXPECT_EQ(thread_getname(987654321, buf, sizeof(buf)), -1);
  EXPECT_EQ(thread_getname(0, nullptr, 8), -1);
  EXPECT_EQ(thread_getname(0, buf, 0), -1);
}

TEST(ThreadScale, ThousandsOfUnboundThreads) {
  // "There can be thousands present": create 2000, each bumps a counter.
  constexpr int kThreads = 2000;
  static std::atomic<int> count;
  count.store(0);
  sema_t done = {};
  struct Shared {
    sema_t* done;
  } shared{&done};
  for (int i = 0; i < kThreads; ++i) {
    thread_id_t id = thread_create(
        nullptr, 0,
        [](void* p) {
          count.fetch_add(1);
          sema_v(static_cast<Shared*>(p)->done);
        },
        &shared, 0);
    ASSERT_NE(id, kInvalidThreadId) << "at " << i;
  }
  for (int i = 0; i < kThreads; ++i) {
    sema_p(&done);
  }
  EXPECT_EQ(count.load(), kThreads);
}

}  // namespace
}  // namespace sunmt
