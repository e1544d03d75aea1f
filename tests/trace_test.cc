// Scheduler trace tests: event capture, ring overwrite, formatting, and the
// waitid / sema_p_timed additions that ride the same binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread.h"
#include "src/core/trace.h"
#include "src/inject/inject.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

bool HasEvent(const std::vector<TraceRecord>& records, TraceEvent event,
              uint64_t thread_id) {
  for (const TraceRecord& r : records) {
    if (r.event == event && r.thread_id == thread_id) {
      return true;
    }
  }
  return false;
}

TEST(Trace, DisabledByDefaultAndCheap) {
  EXPECT_FALSE(Trace::IsEnabled());
  Trace::Record(TraceEvent::kYield, 1, 0);  // must be a no-op, not a crash
  std::vector<TraceRecord> records;
  EXPECT_EQ(Trace::Collect(&records), 0u);
}

TEST(Trace, CapturesThreadLifecycle) {
  Trace::Enable(4096);
  static sema_t gate;
  sema_init(&gate, 0, 0, nullptr);
  thread_id_t worker = Spawn([&] {
    sema_p(&gate);     // BLOCK
    thread_yield();    // possibly YIELD (only if other work is queued)
  });
  EXPECT_TRUE(sunmt_test::WaitForState(worker, "BLOCKED", 5'000'000'000));
  sema_v(&gate);  // WAKE
  EXPECT_TRUE(Join(worker));
  std::vector<TraceRecord> records;
  Trace::Collect(&records);
  Trace::Disable();

  EXPECT_TRUE(HasEvent(records, TraceEvent::kCreate, worker));
  EXPECT_TRUE(HasEvent(records, TraceEvent::kDispatch, worker));
  EXPECT_TRUE(HasEvent(records, TraceEvent::kBlock, worker));
  EXPECT_TRUE(HasEvent(records, TraceEvent::kWake, worker));
  EXPECT_TRUE(HasEvent(records, TraceEvent::kExit, worker));
  // Timestamps are monotone non-decreasing in collection order.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time_ns, records[i].time_ns);
  }
  // Lifecycle ordering for the worker: create < first dispatch < exit.
  int64_t t_create = -1, t_dispatch = -1, t_exit = -1;
  for (const TraceRecord& r : records) {
    if (r.thread_id != worker) {
      continue;
    }
    if (r.event == TraceEvent::kCreate && t_create < 0) {
      t_create = r.time_ns;
    }
    if (r.event == TraceEvent::kDispatch && t_dispatch < 0) {
      t_dispatch = r.time_ns;
    }
    if (r.event == TraceEvent::kExit) {
      t_exit = r.time_ns;
    }
  }
  EXPECT_LE(t_create, t_dispatch);
  EXPECT_LE(t_dispatch, t_exit);
}

TEST(Trace, RingOverwritesOldestButKeepsCounting) {
  Trace::Enable(16);  // tiny ring
  uint64_t before = Trace::RecordedCount();
  for (int i = 0; i < 100; ++i) {
    Trace::Record(TraceEvent::kYield, 42, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(Trace::RecordedCount() - before, 100u);
  std::vector<TraceRecord> records;
  Trace::Collect(&records);
  Trace::Disable();
  EXPECT_LE(records.size(), 16u);
  EXPECT_GE(records.size(), 1u);
  // Only the newest survive.
  for (const TraceRecord& r : records) {
    if (r.thread_id == 42) {
      EXPECT_GE(r.arg, 84u);
    }
  }
}

TEST(Trace, FormatMentionsEventNames) {
  Trace::Enable(1024);
  thread_id_t worker = Spawn([] {});
  EXPECT_TRUE(Join(worker));
  std::string text = Trace::Format();
  Trace::Disable();
  EXPECT_NE(text.find("CREATE"), std::string::npos);
  EXPECT_NE(text.find("DISPATCH"), std::string::npos);
  EXPECT_NE(text.find("EXIT"), std::string::npos);
}

TEST(Trace, EventNamesAreDistinct) {
  EXPECT_STREQ(TraceEventName(TraceEvent::kDispatch), "DISPATCH");
  EXPECT_STREQ(TraceEventName(TraceEvent::kSigwaiting), "SIGWAITING");
  EXPECT_STREQ(TraceEventName(TraceEvent::kPreempt), "PREEMPT");
  EXPECT_STREQ(TraceEventName(TraceEvent::kMutexWait), "MUTEX_WAIT");
  EXPECT_STREQ(TraceEventName(TraceEvent::kKernelWait), "KERNEL_WAIT");
}

TEST(Trace, FormatPrintsTimeSinceEnableWithoutTruncation) {
  Trace::Enable(64);
  int64_t enabled_at = Trace::EnableTimeNs();
  EXPECT_GT(enabled_at, 0);
  Trace::Record(TraceEvent::kYield, 7, 0);
  std::string text = Trace::Format();
  Trace::Disable();
  ASSERT_FALSE(text.empty());
  // The first field is microseconds since Enable(): tiny for a record made
  // immediately after. The old code printed `time_ns % 1e12`, which for a
  // machine with >16min of uptime produced a huge wrapped value here.
  double first_us = strtod(text.c_str(), nullptr);
  EXPECT_GE(first_us, 0.0);
  EXPECT_LT(first_us, 10.0 * 1000 * 1000);  // well under 10s in us
}

// Re-enabling while writers are mid-Record must not crash or free slots out
// from under them (the old implementation delete[]d the live ring).
TEST(Trace, ReEnableDuringWriterStormIsSafe) {
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  Trace::Enable(256);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Trace::Record(TraceEvent::kYield, 1000 + static_cast<uint64_t>(w), i++);
      }
    });
  }
  std::vector<TraceRecord> records;
  for (int round = 0; round < 50; ++round) {
    Trace::Enable(256);   // same capacity: in-place reset under fire
    Trace::Collect(&records);
    Trace::Enable(1024);  // different capacity: ring swap under fire
    Trace::Collect(&records);
    Trace::Enable(256);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) {
    t.join();
  }
  // Survived without crashing; whatever was collected is structurally sound.
  Trace::Collect(&records);
  Trace::Disable();
  for (const TraceRecord& r : records) {
    if (r.event != TraceEvent::kYield) {
      // The ring is process-global: runtime instrumentation (e.g. kInject
      // markers when SUNMT_INJECT is set) may interleave with our writers.
      continue;
    }
    EXPECT_GE(r.thread_id, 1000u);
    EXPECT_LT(r.thread_id, 1000u + kWriters);
  }
}

// Wraparound under a storm: collected records from a tiny ring are never torn
// (magic values stay paired) even while writers lap the readers.
TEST(Trace, WraparoundTornReadsAreFilteredOut) {
  constexpr int kWriters = 4;
  constexpr uint64_t kMagicTid = 0xABCD;
  std::atomic<bool> stop{false};
  Trace::Enable(16);  // tiny: constant lapping
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // arg encodes the writer so a torn record would show a mismatch.
        Trace::Record(TraceEvent::kBlock, kMagicTid + static_cast<uint64_t>(w),
                      (static_cast<uint64_t>(w) << 32) | (i++ & 0xFFFFFFFF));
      }
    });
  }
  std::vector<TraceRecord> records;
  int collected = 0;
  for (int round = 0; round < 200; ++round) {
    // On one CPU the writer threads only make progress when we let go.
    uint64_t target = Trace::RecordedCount() + 64;
    while (Trace::RecordedCount() < target) {
      std::this_thread::yield();
    }
    Trace::Collect(&records);
    for (const TraceRecord& r : records) {
      if (r.event != TraceEvent::kBlock) {
        // Process-global ring: skip interleaved runtime events (kInject etc.).
        continue;
      }
      ++collected;
      uint64_t w = r.thread_id - kMagicTid;
      ASSERT_LT(w, static_cast<uint64_t>(kWriters));
      // A torn record would pair one writer's tid with another's arg.
      ASSERT_EQ(r.arg >> 32, w);
      ASSERT_GT(r.time_ns, 0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) {
    t.join();
  }
  Trace::Disable();
  EXPECT_GT(collected, 0);
}

// The injector records each perturbation it delivers in the ring itself: an
// INJECT event whose arg is (op bit << 32) | point.
TEST(Trace, InjectedPerturbationIsRecorded) {
  inject::Counters env = inject::Snapshot();  // SUNMT_INJECT may be set
  Trace::Enable(4096);
  inject::Configure(/*seed=*/1, /*rate=*/1.0, inject::kOpYield);
  inject::Perturb(inject::kSchedWake);
  inject::Disable();
  std::vector<TraceRecord> records;
  Trace::Collect(&records);
  Trace::Disable();
  if (env.enabled) {
    inject::Configure(env.seed, env.rate, env.ops);
  }
  const uint64_t want =
      (static_cast<uint64_t>(inject::kOpYield) << 32) | inject::kSchedWake;
  bool found = false;
  for (const TraceRecord& r : records) {
    found |= r.event == TraceEvent::kInject && r.arg == want;
  }
  EXPECT_TRUE(found);
}

// ---- waitid alternate interface -----------------------------------------------

TEST(Waitid, PThreadWaitsForSpecificThread) {
  thread_id_t worker = Spawn([] {});
  EXPECT_EQ(thread_waitid(P_THREAD, worker), worker);
}

TEST(Waitid, PThreadAllWaitsForAny) {
  thread_id_t worker = Spawn([] {});
  EXPECT_EQ(thread_waitid(P_THREAD_ALL, 0), worker);
}

TEST(Waitid, RejectsBadArguments) {
  EXPECT_EQ(thread_waitid(P_THREAD, 0), kInvalidThreadId);
  EXPECT_EQ(thread_waitid(99, 1), kInvalidThreadId);
}

// ---- sema_p_timed ----------------------------------------------------------------

TEST(SemaTimed, TakesAvailableTokenImmediately) {
  sema_t sema = {};
  sema_init(&sema, 1, 0, nullptr);
  EXPECT_EQ(sema_p_timed(&sema, 50 * 1000 * 1000), 1);
  EXPECT_EQ(sema_tryp(&sema), 0);  // consumed
}

TEST(SemaTimed, TimesOutWithoutConsuming) {
  sema_t sema = {};
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(sema_p_timed(&sema, 15 * 1000 * 1000), 0);
  EXPECT_GE(MonotonicNowNs() - start, 14 * 1000 * 1000);
  sema_v(&sema);
  EXPECT_EQ(sema_tryp(&sema), 1);  // the timeout did not eat the later token
}

TEST(SemaTimed, VBeatsTimeout) {
  static sema_t sema;
  sema_init(&sema, 0, 0, nullptr);
  thread_id_t poster = Spawn([&] {
    thread_sleep_ms(5);
    sema_v(&sema);
  });
  EXPECT_EQ(sema_p_timed(&sema, 2 * 1000 * 1000 * 1000ll), 1);
  EXPECT_TRUE(Join(poster));
}

TEST(SemaTimed, SharedVariantTimesOut) {
  sema_t sema = {};
  sema_init(&sema, 0, THREAD_SYNC_SHARED, nullptr);
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(sema_p_timed(&sema, 15 * 1000 * 1000), 0);
  EXPECT_GE(MonotonicNowNs() - start, 14 * 1000 * 1000);
  sema_v(&sema);
  EXPECT_EQ(sema_p_timed(&sema, 15 * 1000 * 1000), 1);
}

TEST(SemaTimed, MixedTimedAndPlainWaiters) {
  static sema_t sema;
  sema_init(&sema, 0, 0, nullptr);
  static std::atomic<int> got, timed_out;
  got.store(0);
  timed_out.store(0);
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(Spawn([&] {
      if (sema_p_timed(&sema, 20 * 1000 * 1000)) {
        got.fetch_add(1);
      } else {
        timed_out.fetch_add(1);
      }
    }));
  }
  thread_sleep_ms(2);
  sema_v(&sema);  // exactly one waiter gets a token
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(timed_out.load(), 2);
}

}  // namespace
}  // namespace sunmt
