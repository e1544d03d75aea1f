// Cross-process tests: shared arenas, fork1(), and THREAD_SYNC_SHARED variables
// synchronizing threads in different processes (the paper's Figure 1).

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/lwp/lwp.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

TEST(SharedArena, AllocatorIsStableAndAligned) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  ASSERT_TRUE(arena.valid());
  size_t a = arena.Alloc(10, 8);
  size_t b = arena.Alloc(100, 64);
  size_t c = arena.Alloc(1, 1);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_GE(c, b + 100);
}

TEST(SharedArena, NewReturnsZeroedMemory) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* m = arena.New<mutex_t>();
  ASSERT_NE(m, nullptr);
  // Fresh shared pages are zero: a valid default-variant mutex.
  mutex_init(m, THREAD_SYNC_SHARED, nullptr);
  mutex_enter(m);
  mutex_exit(m);
}

TEST(SharedArena, FileBackedArenaPersists) {
  const char* path = "/tmp/sunmt_arena_test";
  SharedArena::Unlink(path);
  {
    SharedArena arena = SharedArena::MapFile(path, 16 * 1024, /*create=*/true);
    auto* value = arena.At<uint64_t>(arena.Alloc(8, 8));
    *value = 0xdeadbeef;
  }
  {
    SharedArena arena = SharedArena::MapFile(path, 16 * 1024, /*create=*/false);
    // Same layout: first allocation lands at the same offset.
    auto* value = arena.At<uint64_t>(0);
    EXPECT_EQ(*value, 0xdeadbeefu);
  }
  SharedArena::Unlink(path);
}

TEST(Fork1, ChildHasWorkingThreadsPackage) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* result = arena.New<std::atomic<int>>();
  result->store(0);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the package must reinitialize and run threads.
    static std::atomic<int> sum;
    sum.store(0);
    for (int i = 0; i < 4; ++i) {
      thread_id_t id = Spawn([] { sum.fetch_add(1); });
      if (!Join(id)) {
        _exit(10);
      }
    }
    result->store(sum.load());
    _exit(sum.load() == 4 ? 0 : 11);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  EXPECT_EQ(result->load(), 4);
}

TEST(Fork1, OnlyCallingThreadSurvives) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* sibling_ran_in_child = arena.New<std::atomic<int>>();
  sibling_ran_in_child->store(0);
  static std::atomic<bool> stop_sibling;
  stop_sibling.store(false);
  auto* flag = sibling_ran_in_child;
  thread_id_t sibling = Spawn([flag] {
    while (!stop_sibling.load()) {
      thread_yield();
    }
    // If this thread were (incorrectly) duplicated into the child, the child's
    // copy would also bump the shared flag after fork.
    flag->fetch_add(1);
  });
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In the child, only this thread exists. Give any ghost sibling a chance
    // to run (it must not), then report.
    for (int i = 0; i < 20; ++i) {
      thread_yield();
    }
    _exit(0);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  stop_sibling.store(true);
  EXPECT_TRUE(Join(sibling));
  EXPECT_EQ(sibling_ran_in_child->load(), 1);  // parent's sibling only
}

TEST(CrossProcess, SharedMutexExcludesAcrossFork) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* mu = arena.New<mutex_t>();
  auto* counter = arena.New<uint64_t>();
  mutex_init(mu, THREAD_SYNC_SHARED, nullptr);
  *counter = 0;
  constexpr int kIters = 20000;

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (int i = 0; i < kIters; ++i) {
      mutex_enter(mu);
      *counter += 1;  // plain increment: torn updates would show up
      mutex_exit(mu);
    }
    _exit(0);
  }
  for (int i = 0; i < kIters; ++i) {
    mutex_enter(mu);
    *counter += 1;
    mutex_exit(mu);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  EXPECT_EQ(*counter, static_cast<uint64_t>(2 * kIters));
}

TEST(CrossProcess, SharedSemaphoreHandshake) {
  // The Figure 6 cross-process pattern: two processes handshake via semaphores
  // in shared memory.
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* s1 = arena.New<sema_t>();
  auto* s2 = arena.New<sema_t>();
  sema_init(s1, 0, THREAD_SYNC_SHARED, nullptr);
  sema_init(s2, 0, THREAD_SYNC_SHARED, nullptr);
  constexpr int kRounds = 500;

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (int i = 0; i < kRounds; ++i) {
      sema_p(s1);
      sema_v(s2);
    }
    _exit(0);
  }
  for (int i = 0; i < kRounds; ++i) {
    sema_v(s1);
    sema_p(s2);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
}

TEST(CrossProcess, SharedCondvarSignalsAcrossFork) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* mu = arena.New<mutex_t>();
  auto* cv = arena.New<condvar_t>();
  auto* ready = arena.New<std::atomic<int>>();
  mutex_init(mu, THREAD_SYNC_SHARED, nullptr);
  cv_init(cv, THREAD_SYNC_SHARED, nullptr);
  ready->store(0);

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    mutex_enter(mu);
    while (ready->load() == 0) {
      cv_wait(cv, mu);
    }
    mutex_exit(mu);
    _exit(ready->load() == 1 ? 0 : 12);
  }
  // Give the child time to block, then signal it.
  usleep(50 * 1000);
  mutex_enter(mu);
  ready->store(1);
  cv_broadcast(cv);
  mutex_exit(mu);
  EXPECT_EQ(WaitForChild(pid), 0);
}

TEST(CrossProcess, SharedRwlockAcrossFork) {
  SharedArena arena = SharedArena::CreateAnonymous(64 * 1024);
  auto* rw = arena.New<rwlock_t>();
  auto* value = arena.New<uint64_t>();
  auto* violations = arena.New<std::atomic<uint64_t>>();
  rw_init(rw, THREAD_SYNC_SHARED, nullptr);
  *value = 0;
  violations->store(0);
  constexpr int kIters = 4000;

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: writer. Each write bumps twice; a reader seeing an odd value
    // caught a torn (non-exclusive) write window.
    for (int i = 0; i < kIters; ++i) {
      rw_enter(rw, RW_WRITER);
      *value += 1;
      *value += 1;
      rw_exit(rw);
    }
    _exit(0);
  }
  // Parent: reader.
  for (int i = 0; i < kIters; ++i) {
    rw_enter(rw, RW_READER);
    if (*value % 2 != 0) {
      violations->fetch_add(1);
    }
    rw_exit(rw);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  EXPECT_EQ(violations->load(), 0u);
  EXPECT_EQ(*value, static_cast<uint64_t>(2 * kIters));
}

TEST(Fork1, ChildConfiguresItsRebuiltRuntime) {
  // The child's runtime is rebuilt lazily, so a Configure() before its first
  // package call sizes the child's pool.
  SharedArena arena = SharedArena::CreateAnonymous(16 * 1024);
  auto* child_pool = arena.New<std::atomic<int>>();
  child_pool->store(-1);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RuntimeConfig config;
    config.initial_pool_lwps = 3;
    Runtime::Configure(config);
    (void)thread_get_id();  // initialize the child runtime
    child_pool->store(Runtime::Get().pool_size());
    _exit(0);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  EXPECT_EQ(child_pool->load(), 3);
}

TEST(Fork1, SignalTableLockIsRepairedInChild) {
  // A raw kernel thread takes the signal handler table's lock over and over;
  // a fork1() landing while it holds the lock copies a locked image into the
  // child. The repair runs whether or not the process ever installed a
  // handler: this one only reads them.
  static std::atomic<bool> stop;
  stop.store(false);
  std::thread reader([] {
    while (!stop.load()) {
      (void)signal_handler_get(SIG_USR1);
    }
  });
  for (int round = 0; round < 50 && !HasFailure(); ++round) {
    pid_t pid = fork1();
    if (pid == 0) {
      _exit(signal_handler_get(SIG_USR1) == SIG_DEFAULT ? 0 : 13);
    }
    EXPECT_GT(pid, 0);
    if (pid > 0) {
      EXPECT_EQ(WaitForChild(pid, 5'000'000'000), 0) << "round " << round;
    }
  }
  stop.store(true);
  reader.join();
}

TEST(Fork1, PackageLocksAreRepairedInChild) {
  // Hammer package locks in background threads while fork1()ing: the child
  // must still be able to create threads even if the parent forked mid-lock.
  // Two threads create and exit threads (the stack cache); a plain kernel
  // thread constructs and destroys unstarted LWPs, as the service thread does
  // when it reaps one (the ON-PROC slot table). Repeating amplifies the race
  // window.
  static std::atomic<bool> stop;
  stop.store(false);
  std::vector<thread_id_t> churners;
  for (int i = 0; i < 2; ++i) {
    churners.push_back(Spawn([&] {
      while (!stop.load()) {
        thread_id_t child = Spawn([] {});
        Join(child);
      }
    }));
  }
  std::thread lwp_churner([] {
    while (!stop.load()) {
      Lwp unstarted(0);
    }
  });
  for (int round = 0; round < 10 && !HasFailure(); ++round) {
    pid_t pid = fork1();
    if (pid == 0) {
      // Child: creating a thread exercises the stack cache, registry and
      // ON-PROC slot locks.
      thread_id_t t = Spawn([] {});
      _exit(Join(t) ? 0 : 13);
    }
    EXPECT_GT(pid, 0);
    if (pid > 0) {
      EXPECT_EQ(WaitForChild(pid), 0) << "round " << round;
    }
  }
  stop.store(true);
  lwp_churner.join();
  for (thread_id_t id : churners) {
    EXPECT_TRUE(Join(id));
  }
}

TEST(CrossProcess, RecordLocksInAMappedFile) {
  // The paper's database example: per-record mutexes living in a mapped file,
  // locking records across processes.
  const char* path = "/tmp/sunmt_records_test";
  SharedArena::Unlink(path);
  struct Record {
    mutex_t lock;
    uint64_t balance;
  };
  constexpr int kRecords = 8;
  constexpr int kTransfers = 2000;
  {
    SharedArena arena = SharedArena::MapFile(path, 256 * 1024, /*create=*/true);
    for (int i = 0; i < kRecords; ++i) {
      auto* rec = arena.New<Record>();
      mutex_init(&rec->lock, THREAD_SYNC_SHARED, nullptr);
      // Same-class nesting below is the sanctioned address-order idiom; tell
      // the lock-order detector so (see lockdep::SetOrder).
      mutex_set_order(&rec->lock, 10);
      rec->balance = 1000;
    }
  }
  auto worker = [&](unsigned seed) {
    SharedArena arena = SharedArena::MapFile(path, 256 * 1024, /*create=*/false);
    auto* records = arena.At<Record>(0);
    unsigned state = seed;
    for (int i = 0; i < kTransfers; ++i) {
      state = state * 1664525 + 1013904223;
      int from = state % kRecords;
      int to = (from + 1 + (state >> 8) % (kRecords - 1)) % kRecords;
      // Lock in address order to avoid deadlock between processes.
      Record* first = &records[from < to ? from : to];
      Record* second = &records[from < to ? to : from];
      mutex_enter(&first->lock);
      mutex_enter(&second->lock);
      records[from].balance -= 1;
      records[to].balance += 1;
      mutex_exit(&second->lock);
      mutex_exit(&first->lock);
    }
  };
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    worker(1);
    _exit(0);
  }
  worker(2);
  EXPECT_EQ(WaitForChild(pid), 0);
  // Conservation: total balance unchanged.
  SharedArena arena = SharedArena::MapFile(path, 256 * 1024, /*create=*/false);
  auto* records = arena.At<Record>(0);
  uint64_t total = 0;
  for (int i = 0; i < kRecords; ++i) {
    total += records[i].balance;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kRecords) * 1000);
  SharedArena::Unlink(path);
}

}  // namespace
}  // namespace sunmt
