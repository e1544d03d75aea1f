// Tests that pin specific sentences of the paper to observable behavior, where
// not already covered by the per-module suites.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>

#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/recordstore/record_store.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

constexpr int64_t kWaitNs = 5'000'000'000;

// "Synchronization variables can also be placed in files and have lifetimes
// beyond that of the creating process." — including the hazard the paper
// warns about for fork(): a lock held when its holder dies STAYS held.
TEST(PaperSemantics, FileLockOutlivesItsHoldingProcess) {
  const char* path = "/tmp/sunmt_paper_lock_lifetime";
  RecordStore::Unlink(path);
  {
    RecordStore store = RecordStore::Create(path, 16, 2);
    ASSERT_TRUE(store.valid());
  }
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RecordStore view = RecordStore::Open(path);
    if (view.TryLock(0) == nullptr) {
      _exit(9);
    }
    _exit(0);  // dies holding record 0's lock
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 0);
  RecordStore store = RecordStore::Open(path);
  ASSERT_TRUE(store.valid());
  // The dead process's lock persists in the file — exactly the paper's
  // "locks ... can be held by a thread in both processes, unless care is
  // taken" warning generalized to process death.
  EXPECT_EQ(store.TryLock(0), nullptr);
  EXPECT_NE(store.TryLock(1), nullptr);  // other records unaffected
  store.Unlock(1);
  RecordStore::Unlink(path);
}

// "[Semaphores] need not be bracketed so that they may be used for
// asynchronous event notification (e.g. in signal handlers)."
sema_t g_async_sema;

void AsyncNotifyHandler(int) { sema_v(&g_async_sema); }

TEST(PaperSemantics, SemaphorePostedFromSignalHandler) {
  sema_init(&g_async_sema, 0, 0, nullptr);
  signal_handler_set(SIG_USR1, &AsyncNotifyHandler);
  static std::atomic<int> notified;
  notified.store(0);
  thread_id_t waiter = Spawn([&] {
    sema_p(&g_async_sema);  // released by the handler, not by plain code
    notified.store(1);
  });
  ASSERT_TRUE(WaitForState(waiter, "BLOCKED", kWaitNs));
  EXPECT_EQ(notified.load(), 0);
  EXPECT_EQ(thread_kill(thread_get_id(), SIG_USR1), 0);  // handler fires -> V
  EXPECT_TRUE(Join(waiter));
  EXPECT_EQ(notified.load(), 1);
  signal_handler_set(SIG_USR1, SIG_DEFAULT);
}

// "It is an error for a thread to release a lock not held by the thread" /
// rw_exit without a hold — the package panics rather than corrupting state.
TEST(PaperSemanticsDeathTest, RwExitWithoutHoldDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        rwlock_t rw = {};
        rw_exit(&rw);
      },
      "");
}

// "If a stack was supplied by the programmer when the thread was created, it
// may be reclaimed when thread_wait() returns successfully" — and reused for
// another thread immediately.
TEST(PaperSemantics, CallerStackReusableAfterWait) {
  constexpr size_t kSize = 64 * 1024;
  static char stack[kSize] __attribute__((aligned(64)));
  static std::atomic<int> runs;
  runs.store(0);
  for (int round = 0; round < 5; ++round) {
    thread_id_t id = thread_create(
        stack, kSize, [](void*) { runs.fetch_add(1); }, nullptr, THREAD_WAIT);
    ASSERT_NE(id, kInvalidThreadId);
    ASSERT_EQ(thread_wait(id), id);  // stack reclaimed here...
  }
  EXPECT_EQ(runs.load(), 5);  // ...and reused four times
}

// "The exit status of a thread is always zero" — thread_wait returns only the
// identity; there is no status channel (the Pthreads layer adds one on top).
TEST(PaperSemantics, WaitReturnsOnlyTheIdentity) {
  thread_id_t id = Spawn([] {});
  thread_id_t got = thread_wait(id);
  EXPECT_EQ(got, id);  // the whole result
}

// "Calling fork() may cause interruptible system calls to return EINTR when
// the calls are made by any LWP (thread) other than the one calling fork" —
// our fork1 never duplicates those threads at all; the child must see exactly
// one thread regardless of how many existed in the parent.
TEST(PaperSemantics, ChildOfFork1SeesOneThread) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  std::vector<thread_id_t> parked;
  for (int i = 0; i < 5; ++i) {
    parked.push_back(Spawn([&] { sema_p(&gate); }));
  }
  for (thread_id_t id : parked) {
    ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  }
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    (void)thread_get_id();  // re-adopt into the fresh child runtime
    size_t count = Runtime::Get().ThreadCount();
    _exit(count == 1 ? 0 : static_cast<int>(count));
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  for (int i = 0; i < 5; ++i) {
    sema_v(&gate);
  }
  for (thread_id_t id : parked) {
    EXPECT_TRUE(Join(id));
  }
}

}  // namespace
}  // namespace sunmt
