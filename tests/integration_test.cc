// Cross-module integration scenarios modeled on the paper's motivating
// applications: a window system (many unbound threads, few LWPs), a database
// server (mixed bound/unbound with record locks), and a mixed-workload stress.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "src/tls/thread_local.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

ThreadLocal<int> tls_widget_id;

TEST(Integration, WindowSystemManyWidgetsFewLwps) {
  // "A window system can treat each widget as a separate entity": hundreds of
  // widget handler threads, each waiting for events, multiplexed on few LWPs.
  constexpr int kWidgets = 300;
  constexpr int kEventsPerWidget = 5;

  struct Widget {
    sema_t events;          // pending input events
    std::atomic<int> handled;
  };
  static std::vector<Widget>* widgets;
  std::vector<Widget> storage(kWidgets);
  widgets = &storage;
  for (auto& w : storage) {
    sema_init(&w.events, 0, 0, nullptr);
    w.handled.store(0);
  }
  static sema_t all_done;
  sema_init(&all_done, 0, 0, nullptr);

  for (int i = 0; i < kWidgets; ++i) {
    struct Arg {
      int index;
    };
    thread_id_t id = thread_create(
        nullptr, 0,
        [](void* p) {
          int index = static_cast<int>(reinterpret_cast<intptr_t>(p));
          Widget& w = (*widgets)[index];
          tls_widget_id.Get() = index;  // per-thread identity
          for (int e = 0; e < kEventsPerWidget; ++e) {
            sema_p(&w.events);
            EXPECT_EQ(tls_widget_id.Get(), index);
            w.handled.fetch_add(1);
          }
          sema_v(&all_done);
        },
        reinterpret_cast<void*>(static_cast<intptr_t>(i)), 0);
    ASSERT_NE(id, kInvalidThreadId);
  }

  // The "X server" dispatches events round-robin.
  for (int e = 0; e < kEventsPerWidget; ++e) {
    for (int i = 0; i < kWidgets; ++i) {
      sema_v(&storage[i].events);
    }
  }
  for (int i = 0; i < kWidgets; ++i) {
    sema_p(&all_done);
  }
  for (int i = 0; i < kWidgets; ++i) {
    EXPECT_EQ(storage[i].handled.load(), kEventsPerWidget);
  }
  // The whole thing ran on the process's small LWP pool, not 300 LWPs.
  EXPECT_LT(Runtime::Get().pool_size(), 32);
}

TEST(Integration, DatabaseServerMixedBoundUnbound) {
  // A database with per-record locks; "real-time" log flusher bound to its own
  // LWP while request handlers are unbound.
  constexpr int kRecords = 16;
  constexpr int kHandlers = 12;
  constexpr int kOpsPerHandler = 400;

  struct Record {
    mutex_t lock;
    uint64_t value;
  };
  static std::vector<Record>* db;
  std::vector<Record> storage(kRecords);
  db = &storage;
  for (auto& r : storage) {
    mutex_init(&r.lock, 0, nullptr);
    r.value = 0;
  }
  static std::atomic<bool> stop_flusher;
  static std::atomic<int> flushes;
  stop_flusher.store(false);
  flushes.store(0);

  thread_id_t flusher = Spawn(
      [&] {
        while (!stop_flusher.load()) {
          flushes.fetch_add(1);
          thread_yield();
        }
      },
      THREAD_WAIT | THREAD_BIND_LWP);

  std::vector<thread_id_t> handlers;
  for (int h = 0; h < kHandlers; ++h) {
    handlers.push_back(Spawn([h] {
      unsigned state = static_cast<unsigned>(h) * 2654435761u + 1;
      for (int i = 0; i < kOpsPerHandler; ++i) {
        state = state * 1664525 + 1013904223;
        Record& rec = (*db)[state % kRecords];
        mutex_enter(&rec.lock);
        rec.value += 1;
        mutex_exit(&rec.lock);
        if (i % 64 == 0) {
          thread_yield();
        }
      }
    }));
  }
  for (thread_id_t id : handlers) {
    EXPECT_TRUE(Join(id));
  }
  // The handlers may all finish before the flusher's own LWP gets going.
  EXPECT_TRUE(sunmt_test::WaitUntil([] { return flushes.load() > 0; },
                                    5'000'000'000));
  stop_flusher.store(true);
  EXPECT_TRUE(Join(flusher));

  uint64_t total = 0;
  for (const auto& r : storage) {
    total += r.value;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kHandlers) * kOpsPerHandler);
  EXPECT_GT(flushes.load(), 0);
}

TEST(Integration, PriorityThreadsDrainFirstUnderLoad) {
  // Queue a batch of low-priority work plus a few high-priority threads while
  // the single pool LWP is occupied; high-priority threads must all start
  // before any low-priority one.
  thread_setconcurrency(1);
  static std::atomic<bool> release;
  static std::atomic<bool> blocker_up;
  release.store(false);
  blocker_up.store(false);
  thread_id_t blocker = Spawn([&] {
    blocker_up.store(true);
    while (!release.load()) {
    }
  });
  while (!blocker_up.load()) {
  }

  static std::atomic<int> started_low, started_high;
  static std::atomic<bool> order_violated;
  started_low.store(0);
  started_high.store(0);
  order_violated.store(false);
  std::vector<thread_id_t> ids;
  int base = thread_priority(0, 50);
  for (int i = 0; i < 6; ++i) {
    ids.push_back(Spawn([] {
      if (started_high.load() < 3) {
        order_violated.store(true);  // a low ran before all highs started
      }
      started_low.fetch_add(1);
    }));
  }
  for (int i = 0; i < 3; ++i) {
    thread_id_t id = Spawn([] { started_high.fetch_add(1); });
    ASSERT_GE(thread_priority(id, 120), 0);
    ids.push_back(id);
  }
  thread_priority(0, base);
  release.store(true);
  EXPECT_TRUE(Join(blocker));
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(started_low.load(), 6);
  EXPECT_EQ(started_high.load(), 3);
  EXPECT_FALSE(order_violated.load());
  thread_setconcurrency(0);
}

TEST(Integration, SignalsInterruptLongComputation) {
  // The paper's Mach-IPC criticism: our model CAN interrupt a computation via
  // a directed signal observed at safe points.
  static std::atomic<bool> cancelled;
  cancelled.store(false);
  signal_handler_set(SIG_USR1, [](int) { cancelled.store(true); });
  static sema_t started;
  sema_init(&started, 0, 0, nullptr);
  thread_id_t worker = Spawn([&] {
    sema_v(&started);
    for (uint64_t i = 0; i < ~uint64_t{0}; ++i) {
      if (cancelled.load()) {
        return;  // long computation terminated by request
      }
      if (i % 1024 == 0) {
        thread_yield();  // safe points where the signal can land
      }
    }
  });
  sema_p(&started);
  EXPECT_EQ(thread_kill(worker, SIG_USR1), 0);
  EXPECT_TRUE(Join(worker));
  EXPECT_TRUE(cancelled.load());
  signal_handler_set(SIG_USR1, SIG_DEFAULT);
}

TEST(Integration, IntrospectionDuringLoad) {
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(Spawn([&] { sema_p(&gate); }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(sunmt_test::WaitForState(id, "BLOCKED", 5'000'000'000));
  }
  std::vector<ThreadSnapshot> threads;
  SnapshotThreads(&threads);
  EXPECT_GE(threads.size(), 11u);  // 10 workers + main
  std::string dump = FormatProcessState();
  EXPECT_NE(dump.find("BLOCKED"), std::string::npos);
  for (int i = 0; i < 10; ++i) {
    sema_v(&gate);
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
}

}  // namespace
}  // namespace sunmt
