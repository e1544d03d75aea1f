// Introspection (/proc analogue) tests.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/lwp/lwp.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;
using sunmt_test::WaitUntil;

constexpr int64_t kWaitNs = 5'000'000'000;

TEST(Introspect, SeesMainThread) {
  thread_id_t self = thread_get_id();
  std::vector<ThreadSnapshot> threads;
  SnapshotThreads(&threads);
  bool found = false;
  for (const auto& t : threads) {
    if (t.id == self) {
      found = true;
      EXPECT_STREQ(t.state, "RUNNING");
      EXPECT_TRUE(t.bound);  // the adopted initial thread is bound to its LWP
    }
  }
  EXPECT_TRUE(found);
}

TEST(Introspect, ShowsBlockedAndRunnableStates) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  thread_id_t blocked = Spawn([&] { sema_p(&gate); });
  ASSERT_TRUE(WaitForState(blocked, "BLOCKED", kWaitNs));
  std::vector<ThreadSnapshot> threads;
  SnapshotThreads(&threads);
  bool saw_blocked = false;
  for (const auto& t : threads) {
    if (t.id == blocked) {
      saw_blocked = true;
      EXPECT_STREQ(t.state, "BLOCKED");
      EXPECT_FALSE(t.bound);
      EXPECT_TRUE(t.waitable);
    }
  }
  EXPECT_TRUE(saw_blocked);
  sema_v(&gate);
  EXPECT_TRUE(Join(blocked));
}

TEST(Introspect, ShowsStoppedThreads) {
  thread_id_t id = thread_create(
      nullptr, 0, [](void*) {}, nullptr, THREAD_STOP | THREAD_WAIT);
  std::vector<ThreadSnapshot> threads;
  SnapshotThreads(&threads);
  bool saw = false;
  for (const auto& t : threads) {
    if (t.id == id) {
      saw = true;
      EXPECT_STREQ(t.state, "STOPPED");
    }
  }
  EXPECT_TRUE(saw);
  thread_continue(id);
  EXPECT_TRUE(Join(id));
}

TEST(Introspect, LwpSnapshotIncludesPoolAndBound) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  thread_id_t bound = Spawn([&] { sema_p(&gate); }, THREAD_WAIT | THREAD_BIND_LWP);
  ASSERT_TRUE(WaitForState(bound, "BLOCKED", kWaitNs));
  std::vector<LwpSnapshot> lwps;
  SnapshotLwps(&lwps);
  size_t pool_count = 0;
  size_t nonpool_count = 0;
  for (const auto& l : lwps) {
    if (l.pool) {
      ++pool_count;
    } else {
      ++nonpool_count;
    }
  }
  EXPECT_GE(pool_count, 1u);
  EXPECT_GE(nonpool_count, 1u);  // the bound thread's LWP and/or the main LWP
  sema_v(&gate);
  EXPECT_TRUE(Join(bound));
}

TEST(Introspect, FormattedDumpMentionsEverything) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  thread_id_t worker = Spawn([&] { sema_p(&gate); });
  ASSERT_TRUE(WaitForState(worker, "BLOCKED", kWaitNs));
  std::string dump = FormatProcessState();
  EXPECT_NE(dump.find("THREADS"), std::string::npos);
  EXPECT_NE(dump.find("LWPS"), std::string::npos);
  EXPECT_NE(dump.find("BLOCKED"), std::string::npos);
  EXPECT_NE(dump.find("RUNNING"), std::string::npos);
  sema_v(&gate);
  EXPECT_TRUE(Join(worker));
}

ThreadSnapshot FindThread(thread_id_t id) {
  std::vector<ThreadSnapshot> threads;
  SnapshotThreads(&threads);
  for (const ThreadSnapshot& t : threads) {
    if (t.id == id) {
      return t;
    }
  }
  ADD_FAILURE() << "thread " << id << " missing from the snapshot";
  return ThreadSnapshot{};
}

std::set<int> LwpIds(bool pool_only) {
  std::vector<LwpSnapshot> lwps;
  SnapshotLwps(&lwps);
  std::set<int> ids;
  for (const LwpSnapshot& l : lwps) {
    if (l.pool || !pool_only) {
      ids.insert(l.id);
    }
  }
  return ids;
}

// A thread's lwp_id is the LWP whose ON-PROC slot names it, or its bound LWP:
// a blocked unbound thread is on no LWP, even after the LWPs it last ran on
// have retired and been reaped. Runs last: it leaves the pool at one LWP.
TEST(Introspect, LwpIdIsTheLwpWhoseSlotNamesTheThread) {
  constexpr int kBlocked = 4;
  ASSERT_EQ(thread_setconcurrency(kBlocked), 0);
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  static std::atomic<int> started;
  static std::atomic<int> ran_on[kBlocked];
  static std::atomic<bool> stop;
  started.store(0);
  stop.store(false);
  thread_id_t blocked[kBlocked];
  for (int i = 0; i < kBlocked; ++i) {
    blocked[i] = Spawn([i] {
      // No safe point until all have started: each holds an LWP of its own.
      started.fetch_add(1);
      while (started.load() < kBlocked) {
      }
      ran_on[i].store(Lwp::Current()->id());
      sema_p(&gate);
    });
  }
  for (thread_id_t id : blocked) {
    ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  }
  thread_id_t spinner = Spawn([] {
    while (!stop.load()) {  // no safe point: stays on one LWP
    }
  });
  ASSERT_TRUE(WaitForState(spinner, "RUNNING", kWaitNs));
  std::vector<LwpSnapshot> lwps;
  SnapshotLwps(&lwps);
  int carrier = -1;
  for (const LwpSnapshot& l : lwps) {
    if (l.running_thread == spinner) {
      carrier = l.id;
    }
  }
  EXPECT_NE(carrier, -1) << FormatProcessState();
  EXPECT_EQ(FindThread(spinner).lwp_id, carrier);
  EXPECT_EQ(FindThread(thread_get_id()).lwp_id, Lwp::Current()->id());
  for (thread_id_t id : blocked) {
    EXPECT_EQ(FindThread(id).lwp_id, -1) << "blocked thread " << id;
  }
  stop.store(true);
  EXPECT_TRUE(Join(spinner));

  // Retire every pool LWP but one, and wait until the retired ones that
  // carried the blocked threads have left the snapshot.
  ASSERT_EQ(thread_setconcurrency(1), 0);
  ASSERT_TRUE(WaitUntil(
      [] {
        std::set<int> pool = LwpIds(/*pool_only=*/true);
        std::set<int> all = LwpIds(/*pool_only=*/false);
        int gone = 0;
        for (const std::atomic<int>& id : ran_on) {
          gone += all.count(id.load()) == 0 ? 1 : 0;
        }
        return pool.size() == 1 && gone >= kBlocked - 1;
      },
      kWaitNs))
      << FormatProcessState();
  usleep(10 * 1000);  // a few service-loop passes: the reaper deletes them
  for (thread_id_t id : blocked) {
    EXPECT_EQ(FindThread(id).lwp_id, -1) << "blocked thread " << id;
  }
  for (int i = 0; i < kBlocked; ++i) {
    sema_v(&gate);
  }
  for (thread_id_t id : blocked) {
    EXPECT_TRUE(Join(id));
  }
}

}  // namespace
}  // namespace sunmt
