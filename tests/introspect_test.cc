// Introspection (/proc analogue) tests.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

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

}  // namespace
}  // namespace sunmt
