// Condition variable tests: wait/signal/broadcast, monitor usage patterns.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
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

TEST(Condvar, ZeroInitializedIsUsable) {
  static mutex_t mu;
  static condvar_t cv;
  static bool ready;
  ready = false;
  thread_id_t id = Spawn([&] {
    mutex_enter(&mu);
    ready = true;
    cv_signal(&cv);
    mutex_exit(&mu);
  });
  mutex_enter(&mu);
  while (!ready) {
    cv_wait(&cv, &mu);
  }
  mutex_exit(&mu);
  EXPECT_TRUE(Join(id));
  EXPECT_TRUE(ready);
}

TEST(Condvar, SignalWithNoWaitersIsLost) {
  // Unlike semaphores, condition variables carry no state.
  static mutex_t mu;
  static condvar_t cv;
  static std::atomic<bool> woke;
  woke.store(false);
  cv_signal(&cv);  // no waiter: must be a no-op
  thread_id_t id = Spawn([&] {
    mutex_enter(&mu);
    cv_wait(&cv, &mu);  // must NOT consume the earlier signal
    woke.store(true);
    mutex_exit(&mu);
  });
  ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));  // parked in cv_wait
  EXPECT_FALSE(woke.load());
  mutex_enter(&mu);
  cv_signal(&cv);
  mutex_exit(&mu);
  EXPECT_TRUE(Join(id));
  EXPECT_TRUE(woke.load());
}

TEST(Condvar, WaitReleasesMutexWhileBlocked) {
  static mutex_t mu;
  static condvar_t cv;
  static std::atomic<int> got_lock;
  got_lock.store(0);
  thread_id_t waiter = Spawn([&] {
    mutex_enter(&mu);
    cv_wait(&cv, &mu);
    mutex_exit(&mu);
  });
  ASSERT_TRUE(WaitForState(waiter, "BLOCKED", kWaitNs));
  // The waiter is blocked in cv_wait; the mutex must be free.
  thread_id_t prober = Spawn([&] {
    got_lock.store(mutex_tryenter(&mu));
    if (got_lock.load() == 1) {
      mutex_exit(&mu);
    }
  });
  EXPECT_TRUE(Join(prober));
  EXPECT_EQ(got_lock.load(), 1);
  cv_signal(&cv);
  EXPECT_TRUE(Join(waiter));
}

TEST(Condvar, SignalWakesExactlyOne) {
  static mutex_t mu;
  static condvar_t cv;
  static std::atomic<int> woke;
  static std::atomic<int> waiting;
  woke.store(0);
  waiting.store(0);
  constexpr int kWaiters = 4;
  std::vector<thread_id_t> ids;
  for (int i = 0; i < kWaiters; ++i) {
    ids.push_back(Spawn([&] {
      mutex_enter(&mu);
      waiting.fetch_add(1);
      cv_wait(&cv, &mu);
      woke.fetch_add(1);
      mutex_exit(&mu);
    }));
  }
  // Past mutex_enter, a waiter's only blocking point is cv_wait.
  ASSERT_TRUE(WaitUntil([] { return waiting.load() == kWaiters; }, kWaitNs));
  for (thread_id_t id : ids) {
    ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  }
  cv_signal(&cv);
  EXPECT_TRUE(WaitUntil([] { return woke.load() >= 1; }, kWaitNs));
  EXPECT_EQ(woke.load(), 1);
  cv_broadcast(&cv);  // release the rest
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(woke.load(), kWaiters);
}

TEST(Condvar, BroadcastWakesAll) {
  static mutex_t mu;
  static condvar_t cv;
  static std::atomic<int> woke;
  static std::atomic<int> waiting;
  static bool go;
  woke.store(0);
  waiting.store(0);
  go = false;
  constexpr int kWaiters = 6;
  std::vector<thread_id_t> ids;
  for (int i = 0; i < kWaiters; ++i) {
    ids.push_back(Spawn([&] {
      mutex_enter(&mu);
      waiting.fetch_add(1);
      while (!go) {
        cv_wait(&cv, &mu);
      }
      woke.fetch_add(1);
      mutex_exit(&mu);
    }));
  }
  while (waiting.load() < kWaiters) {
    thread_yield();
  }
  mutex_enter(&mu);
  go = true;
  cv_broadcast(&cv);
  mutex_exit(&mu);
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(woke.load(), kWaiters);
}

// The paper's canonical monitor: a bounded producer/consumer queue.
class CondvarPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(CondvarPipelineTest, BoundedQueueDeliversEverythingInOrder) {
  const int variant = GetParam();
  constexpr int kItems = 2000;
  constexpr size_t kCapacity = 8;

  static mutex_t mu;
  static condvar_t not_full;
  static condvar_t not_empty;
  static std::deque<int>* queue;
  mutex_init(&mu, variant & THREAD_SYNC_SHARED ? 0 : variant, nullptr);
  cv_init(&not_full, variant, nullptr);
  cv_init(&not_empty, variant, nullptr);
  std::deque<int> storage;
  queue = &storage;

  static std::vector<int>* consumed_ptr;
  std::vector<int> consumed;
  consumed_ptr = &consumed;

  thread_id_t producer = Spawn([&] {
    for (int i = 0; i < kItems; ++i) {
      mutex_enter(&mu);
      while (queue->size() >= kCapacity) {
        cv_wait(&not_full, &mu);
      }
      queue->push_back(i);
      cv_signal(&not_empty);
      mutex_exit(&mu);
    }
  });
  thread_id_t consumer = Spawn([&] {
    for (int i = 0; i < kItems; ++i) {
      mutex_enter(&mu);
      while (queue->empty()) {
        cv_wait(&not_empty, &mu);
      }
      consumed_ptr->push_back(queue->front());
      queue->pop_front();
      cv_signal(&not_full);
      mutex_exit(&mu);
    }
  });
  EXPECT_TRUE(Join(producer));
  EXPECT_TRUE(Join(consumer));
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(consumed[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, CondvarPipelineTest,
                         ::testing::Values(0, THREAD_SYNC_SHARED),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("local")
                                                  : std::string("shared");
                         });

}  // namespace
}  // namespace sunmt
