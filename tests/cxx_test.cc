// Tests for the C++ RAII layer (Thread, guards, Monitor) and cv_timedwait.

#include <errno.h>
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/core/thread.h"
#include "src/cxx/guards.h"
#include "src/cxx/monitor.h"
#include "src/cxx/thread.h"
#include "src/pthread/pthread_compat.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

TEST(CxxThread, SpawnAndJoin) {
  std::atomic<int> ran{0};
  Thread t([&] { ran.store(1); });
  EXPECT_TRUE(t.Joinable());
  t.Join();
  EXPECT_FALSE(t.Joinable());
  EXPECT_EQ(ran.load(), 1);
}

TEST(CxxThread, JoinsOnDestruction) {
  std::atomic<int> ran{0};
  {
    Thread t([&] {
      thread_yield();
      ran.store(1);
    });
  }  // destructor joins
  EXPECT_EQ(ran.load(), 1);
}

TEST(CxxThread, MoveTransfersOwnership) {
  std::atomic<int> ran{0};
  Thread a([&] { ran.store(1); });
  thread_id_t id = a.id();
  Thread b = std::move(a);
  EXPECT_FALSE(a.Joinable());
  EXPECT_TRUE(b.Joinable());
  EXPECT_EQ(b.id(), id);
  b.Join();
  EXPECT_EQ(ran.load(), 1);
}

TEST(CxxThread, LambdaCapturesWork) {
  std::vector<int> results(8, 0);
  std::vector<Thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&results, i] { results[i] = i * i; });
  }
  threads.clear();  // joins all
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(CxxThread, OptionsBoundAndStopped) {
  std::atomic<int> ran{0};
  Thread::Options options;
  options.bound = true;
  options.start_stopped = true;
  options.priority = 90;
  Thread t([&] { ran.store(1); }, options);
  for (int i = 0; i < 20; ++i) {
    thread_yield();
  }
  EXPECT_EQ(ran.load(), 0);  // still stopped
  t.Continue();
  t.Join();
  EXPECT_EQ(ran.load(), 1);
}

TEST(CxxGuards, MutexGuardBrackets) {
  static mutex_t mu;
  mutex_init(&mu, 0, nullptr);
  {
    MutexGuard guard(mu);
    EXPECT_EQ(mutex_tryenter(&mu), 0);  // held
  }
  EXPECT_EQ(mutex_tryenter(&mu), 1);  // released by the guard
  mutex_exit(&mu);
}

TEST(CxxGuards, TryMutexGuardReportsOutcome) {
  mutex_t mu = {};
  mutex_enter(&mu);
  {
    TryMutexGuard guard(mu);
    EXPECT_FALSE(guard.ok());
  }
  mutex_exit(&mu);
  {
    TryMutexGuard guard(mu);
    EXPECT_TRUE(guard.ok());
    EXPECT_EQ(mutex_tryenter(&mu), 0);
  }
  EXPECT_EQ(mutex_tryenter(&mu), 1);
  mutex_exit(&mu);
}

TEST(CxxGuards, ReaderWriterGuards) {
  rwlock_t rw = {};
  {
    ReaderGuard r1(rw);
    ReaderGuard r2(rw);  // readers share
    EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 0);
  }
  {
    WriterGuard w(rw);
    EXPECT_EQ(rw_tryenter(&rw, RW_READER), 0);
    w.Downgrade();
    EXPECT_EQ(rw_tryenter(&rw, RW_READER), 1);  // now shared
    rw_exit(&rw);
  }
  EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 1);
  rw_exit(&rw);
}

TEST(CxxGuards, SemaGuardHoldsToken) {
  sema_t sema = {};
  sema_init(&sema, 2, 0, nullptr);
  {
    SemaGuard g1(sema);
    SemaGuard g2(sema);
    EXPECT_EQ(sema_tryp(&sema), 0);  // both tokens held
  }
  EXPECT_EQ(sema_tryp(&sema), 1);
  EXPECT_EQ(sema_tryp(&sema), 1);
  EXPECT_EQ(sema_tryp(&sema), 0);
}

TEST(CxxMonitor, WithAndWhen) {
  Monitor<int> counter(0);
  Thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      counter.WithBroadcast([](int& v) { ++v; });
    }
  });
  int seen = counter.When([](int& v) { return v >= 100; }, [](int& v) { return v; });
  EXPECT_EQ(seen, 100);
  producer.Join();
}

TEST(CxxMonitor, WhenForTimesOut) {
  Monitor<int> value(0);
  int64_t start = MonotonicNowNs();
  bool ok = value.WhenFor(
      20 * 1000 * 1000, [](int& v) { return v == 42; }, [](int&) {});
  EXPECT_FALSE(ok);
  EXPECT_GE(MonotonicNowNs() - start, 18 * 1000 * 1000);
}

TEST(CxxMonitor, WhenForSucceedsWhenSignaled) {
  Monitor<int> value(0);
  Thread setter([&] {
    thread_sleep_ms(5);
    value.WithBroadcast([](int& v) { v = 42; });
  });
  bool ok = value.WhenFor(
      2 * 1000 * 1000 * 1000ll, [](int& v) { return v == 42; }, [](int&) {});
  EXPECT_TRUE(ok);
  setter.Join();
}

// ---- cv_timedwait semantics --------------------------------------------------

TEST(CvTimedwait, TimesOutWhenNeverSignaled) {
  mutex_t mu = {};
  condvar_t cv = {};
  mutex_enter(&mu);
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(cv_timedwait(&cv, &mu, 15 * 1000 * 1000), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 14 * 1000 * 1000);
  mutex_exit(&mu);
}

TEST(CvTimedwait, SignalBeatsTimeout) {
  static mutex_t mu;
  static condvar_t cv;
  static bool ready;
  mutex_init(&mu, 0, nullptr);
  cv_init(&cv, 0, nullptr);
  ready = false;
  Thread signaler([&] {
    thread_sleep_ms(5);
    mutex_enter(&mu);
    ready = true;
    cv_signal(&cv);
    mutex_exit(&mu);
  });
  mutex_enter(&mu);
  int rc = 0;
  while (!ready && rc == 0) {
    rc = cv_timedwait(&cv, &mu, 2 * 1000 * 1000 * 1000ll);
  }
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(ready);
  mutex_exit(&mu);
  signaler.Join();
}

TEST(CvTimedwait, StaleTimerCannotWakeALaterWait) {
  // Wait twice in quick succession on the same cv with a long first timeout:
  // the first wait is signaled (its timer keeps ticking), and the second wait
  // must still time out on ITS schedule, unaffected by the stale timer.
  static mutex_t mu;
  static condvar_t cv;
  mutex_init(&mu, 0, nullptr);
  cv_init(&cv, 0, nullptr);
  Thread signaler([&] {
    thread_sleep_ms(5);
    mutex_enter(&mu);
    cv_signal(&cv);
    mutex_exit(&mu);
  });
  mutex_enter(&mu);
  EXPECT_EQ(cv_timedwait(&cv, &mu, 2 * 1000 * 1000 * 1000ll), 0);  // signaled
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(cv_timedwait(&cv, &mu, 20 * 1000 * 1000), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 18 * 1000 * 1000);
  mutex_exit(&mu);
  signaler.Join();
}

TEST(CvTimedwait, SharedVariantTimesOut) {
  mutex_t mu = {};
  condvar_t cv = {};
  mutex_init(&mu, THREAD_SYNC_SHARED, nullptr);
  cv_init(&cv, THREAD_SYNC_SHARED, nullptr);
  mutex_enter(&mu);
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(cv_timedwait(&cv, &mu, 15 * 1000 * 1000), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 14 * 1000 * 1000);
  mutex_exit(&mu);
}

TEST(CvTimedwait, MixOfTimedAndPlainWaiters) {
  static mutex_t mu;
  static condvar_t cv;
  static std::atomic<int> entered, timed_out_count, woken_count;
  mutex_init(&mu, 0, nullptr);
  cv_init(&cv, 0, nullptr);
  entered.store(0);
  timed_out_count.store(0);
  woken_count.store(0);
  std::vector<Thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      mutex_enter(&mu);
      entered.fetch_add(1);
      int rc = cv_timedwait(&cv, &mu, 15 * 1000 * 1000);
      mutex_exit(&mu);
      (rc == ETIME ? timed_out_count : woken_count).fetch_add(1);
    });
  }
  // Wake exactly one; the other two must time out. Wait until all three have
  // entered: cv_timedwait drops the mutex only once queued, so once this
  // thread holds it, every waiter that has not timed out is queued.
  EXPECT_TRUE(sunmt_test::WaitUntil([] { return entered.load() == 3; },
                                    5'000'000'000));
  mutex_enter(&mu);
  cv_signal(&cv);
  mutex_exit(&mu);
  waiters.clear();  // join all
  EXPECT_EQ(woken_count.load(), 1);
  EXPECT_EQ(timed_out_count.load(), 2);
}

TEST(PtCondTimedwait, MapsToEtimedout) {
  pt_mutex_t mu;
  pt_cond_t cv;
  pt_mutex_init(&mu, nullptr);
  pt_cond_init(&cv, nullptr);
  pt_mutex_lock(&mu);
  EXPECT_EQ(pt_cond_timedwait(&cv, &mu, 10 * 1000 * 1000), ETIMEDOUT);
  pt_mutex_unlock(&mu);
}

}  // namespace
}  // namespace sunmt
