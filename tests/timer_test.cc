// Timer subsystem tests: per-thread timers, the per-process interval timer,
// cancellation, the user-level thread_sleep_ns, and the one service thread
// that drives every timed duty.

#include <dirent.h>
#include <gtest/gtest.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/lwp/lwp.h"
#include "src/rlimit/rlimit.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitUntil;

constexpr int64_t kSec = 1000 * 1000 * 1000;

// Kernel threads of this process that are not LWPs.
int NonLwpThreads() {
  int tasks = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return -1;
  }
  while (dirent* entry = readdir(dir)) {
    tasks += entry->d_name[0] != '.' ? 1 : 0;
  }
  closedir(dir);
  return tasks - static_cast<int>(LwpRegistry::Count());
}

// Polls until the count reads the same five times running: a new LWP is a
// task a moment before it registers.
int StableNonLwpThreads() {
  int last = NonLwpThreads();
  for (int same = 0; same < 5;) {
    usleep(2000);
    int now = NonLwpThreads();
    same = now == last ? same + 1 : 0;
    last = now;
  }
  return last;
}

void IgnoreTimer(void*, uint64_t) {}
void IgnoreLwpTimer(Lwp*, LwpTimerKind, void*) {}

// First in the file, so no timed duty has run yet in this process. The
// runtime's service loop sweeps the wheel, runs the LWP clock and, on each
// clock tick, the CPU-limit check: arming each starts no kernel thread.
TEST(ServiceThread, TimedDutiesStartNoKernelThread) {
  thread_get_id();  // builds the runtime and adopts this thread as an LWP
  int before = StableNonLwpThreads();
  timer_id_t id = timer_arm_callback(3600 * kSec, &IgnoreTimer, nullptr, 0);
  process_set_cpu_limit(process_rusage().user_ns + 3600 * kSec, SIG_XCPU);
  uint64_t ticks = LwpRegistry::ClockTicks();
  Lwp::Current()->SetTimer(LwpTimerKind::kVirtual, 3600 * kSec, &IgnoreLwpTimer,
                           nullptr);
  EXPECT_TRUE(WaitUntil([&] { return LwpRegistry::ClockTicks() > ticks; }, 5 * kSec))
      << "the virtual timer did not start the LWP clock";
  EXPECT_EQ(StableNonLwpThreads(), before);
  Lwp::Current()->SetTimer(LwpTimerKind::kVirtual, 0, nullptr, nullptr);
  process_set_cpu_limit(0, SIG_XCPU);
  EXPECT_EQ(timer_cancel(id), 0);
}

std::atomic<int> g_alarms{0};
std::atomic<uint64_t> g_alarm_thread{0};

void AlarmHandler(int sig) {
  EXPECT_EQ(sig, SIG_ALRM);
  // Thread first: a waiter that sees the count must also see who handled it.
  g_alarm_thread.store(thread_get_id());
  g_alarms.fetch_add(1);
}

TEST(Timer, RejectsBadArguments) {
  EXPECT_EQ(timer_arm(-1, 0, SIG_ALRM, 0), kInvalidTimerId);
  EXPECT_EQ(timer_arm(0, -1, SIG_ALRM, 0), kInvalidTimerId);
  EXPECT_EQ(timer_arm(0, 0, 0, 0), kInvalidTimerId);
  EXPECT_EQ(timer_arm(0, 0, 99, 0), kInvalidTimerId);
  EXPECT_EQ(timer_cancel(987654), -1);
}

TEST(Timer, OneShotDeliversToCallingThread) {
  g_alarms.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  timer_id_t id = timer_arm(5 * 1000 * 1000, 0, SIG_ALRM, 0);
  ASSERT_NE(id, kInvalidTimerId);
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while (g_alarms.load() == 0 && MonotonicNowNs() < deadline) {
    thread_poll();  // safe point where delivery happens
    thread_yield();
  }
  EXPECT_EQ(g_alarms.load(), 1);
  EXPECT_EQ(g_alarm_thread.load(), thread_get_id());
  EXPECT_EQ(timer_cancel(id), -1);  // already fired
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
}

TEST(Timer, PeriodicFiresRepeatedlyUntilCancelled) {
  g_alarms.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  timer_id_t id = timer_arm(2 * 1000 * 1000, 2 * 1000 * 1000, SIG_ALRM, 0);
  ASSERT_NE(id, kInvalidTimerId);
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while (g_alarms.load() < 3 && MonotonicNowNs() < deadline) {
    thread_poll();
    thread_yield();
  }
  EXPECT_GE(g_alarms.load(), 3);
  EXPECT_EQ(timer_cancel(id), 0);
  // After cancel, no further deliveries accumulate.
  thread_poll();
  int after_cancel = g_alarms.load();
  for (int i = 0; i < 10; ++i) {
    struct timespec ts = {0, 2 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    thread_poll();
  }
  EXPECT_LE(g_alarms.load(), after_cancel + 1);  // at most one in-flight fire
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
}

// Holds the service thread inside a timer callback until released.
struct Hold {
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
  std::atomic<bool> done{false};
  void Reset() {
    running.store(false);
    release.store(false);
    done.store(false);
  }
};

void HoldServiceThread(void* cookie, uint64_t) {
  auto* hold = static_cast<Hold*>(cookie);
  hold->running.store(true);
  while (!hold->release.load()) {
    usleep(100);
  }
  hold->done.store(true);
}

// A cancel that lands while a periodic signal timer's fire is in flight
// returns 0, and no signal follows it. Deterministic: after the timer's first
// signal, a blocking callback holds the service thread while the timer's
// second expiry and a second blocking callback, due earlier, fall due. The
// next sweep claims both and runs the callback first, so the signal entry
// stays claimed while this thread, which took the first signal, cancels.
TEST(Timer, PeriodicSignalCancelledMidFireReturnsZero) {
  constexpr int64_t kPeriod = 200'000'000;
  g_alarms.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  // Static: a callback still pending after a failed assertion must not
  // outlive its Hold.
  static Hold hold, second;
  hold.Reset();
  second.Reset();
  // Armed from one kernel thread, all three share one wheel shard, and the
  // second callback falls due half a period before the timer's second expiry.
  int64_t armed_at = MonotonicNowNs();
  timer_id_t id = timer_arm(1'000'000, kPeriod, SIG_ALRM, 0);
  ASSERT_NE(id, kInvalidTimerId);
  ASSERT_NE(timer_arm_callback(2'000'000, &HoldServiceThread, &hold, 0),
            kInvalidTimerId);
  ASSERT_NE(timer_arm_callback(kPeriod / 2, &HoldServiceThread, &second, 0),
            kInvalidTimerId);
  EXPECT_TRUE(WaitUntil(
      [] {
        thread_poll();  // takes the first signal
        return g_alarms.load() == 1 && hold.running.load();
      },
      5 * kSec));
  // Past the second expiry (plus two ~1.05 ms wheel ticks), then let go.
  while (MonotonicNowNs() < armed_at + 1'000'000 + kPeriod + 3'000'000) {
    usleep(1000);
  }
  hold.release.store(true);
  EXPECT_TRUE(WaitUntil([] { return second.running.load(); }, 5 * kSec));
  EXPECT_EQ(timer_cancel(id), 0);
  second.release.store(true);
  EXPECT_TRUE(WaitUntil([] { return second.done.load(); }, 5 * kSec));
  int64_t quiet_until = MonotonicNowNs() + 20'000'000;
  while (MonotonicNowNs() < quiet_until) {
    thread_poll();
    usleep(1000);
  }
  EXPECT_EQ(g_alarms.load(), 1) << "a signal followed the cancel";
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
}

// The service thread sends every timer signal, but it is no thread of the
// package: a fire must not adopt it as one, or it would show up running a
// thread on an LWP of its own.
TEST(ServiceThread, SignalFireAdoptsNoThread) {
  g_alarms.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  ASSERT_NE(timer_arm(1'000'000, 0, SIG_ALRM, 0), kInvalidTimerId);
  EXPECT_TRUE(WaitUntil(
      [] {
        thread_poll();
        return g_alarms.load() == 1;
      },
      5 * kSec));
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
  std::vector<LwpSnapshot> lwps;
  SnapshotLwps(&lwps);
  for (const LwpSnapshot& l : lwps) {
    EXPECT_TRUE(l.pool || l.id == Lwp::Current()->id())
        << "LWP " << l.id << " runs thread " << l.running_thread;
  }
}

TEST(Timer, DirectedTimerTargetsSpecificThread) {
  g_alarms.store(0);
  g_alarm_thread.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  static sema_t quit;
  sema_init(&quit, 0, 0, nullptr);
  thread_id_t worker = Spawn([&] {
    while (g_alarms.load() == 0) {
      thread_poll();
      thread_yield();
    }
    sema_p(&quit);
  });
  timer_id_t id = timer_arm(3 * 1000 * 1000, 0, SIG_ALRM, worker);
  ASSERT_NE(id, kInvalidTimerId);
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while (g_alarms.load() == 0 && MonotonicNowNs() < deadline) {
    thread_yield();
  }
  EXPECT_EQ(g_alarms.load(), 1);
  EXPECT_EQ(g_alarm_thread.load(), worker);
  sema_v(&quit);
  EXPECT_TRUE(Join(worker));
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
}

TEST(Timer, ProcessIntervalTimerRaisesProcessInterrupt) {
  g_alarms.store(0);
  signal_handler_set(SIG_ALRM, &AlarmHandler);
  EXPECT_EQ(timer_set_process_interval(3 * 1000 * 1000, SIG_ALRM), 0);
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while (g_alarms.load() < 2 && MonotonicNowNs() < deadline) {
    thread_poll();
    thread_yield();
  }
  EXPECT_GE(g_alarms.load(), 2);
  EXPECT_EQ(timer_set_process_interval(0, SIG_ALRM), 3 * 1000 * 1000);
  // The disarm stops future fires, but one that already raised SIG_ALRM
  // leaves it pending at process level; drain it into the still-installed
  // handler before dropping back to SIG_DEFAULT, whose action terminates.
  // (Under CPU load the wait loop above can be descheduled long enough for
  // several interval fires to pile up pending.)
  for (int i = 0; i < 3; ++i) {
    thread_poll();
    thread_yield();
  }
  signal_handler_set(SIG_ALRM, SIG_DEFAULT);
}

// "There is only one real-time interval timer per process", even when callers
// race: two kernel threads arm and disarm it for about a second, and once the
// last disarm returns no interval fire may follow. Two racing arms that both
// stored an id would leave one 1 ms periodic timer nobody can cancel.
// SIG_CHLD's default action ignores it, so the fires need no handler.
TEST(Timer, RacingIntervalSetsLeaveNoTimerArmed) {
  auto hammer = [] {
    int64_t until = MonotonicNowNs() + kSec;
    while (MonotonicNowNs() < until) {
      timer_set_process_interval(1'000'000, SIG_CHLD);
      timer_set_process_interval(0, SIG_CHLD);
    }
  };
  std::thread t1(hammer);
  std::thread t2(hammer);
  t1.join();
  t2.join();
  timer_set_process_interval(0, SIG_CHLD);
  usleep(20'000);  // lets a fire claimed before the last disarm finish
  uint64_t fires = timer_fire_count();
  usleep(50'000);
  EXPECT_EQ(timer_fire_count(), fires) << "an interval timer outlived its disarm";
}

TEST(Timer, ThreadSleepBlocksOnlyTheThread) {
  // Two sleeping threads + one compute thread on a single-LWP pool: if sleep
  // blocked the LWP, the compute thread could not finish while they sleep.
  thread_setconcurrency(1);
  static std::atomic<bool> computed;
  static std::atomic<int> sleepers_done;
  computed.store(false);
  sleepers_done.store(0);
  thread_id_t s1 = Spawn([&] {
    thread_sleep_ms(50);
    sleepers_done.fetch_add(1);
  });
  thread_id_t s2 = Spawn([&] {
    thread_sleep_ms(50);
    sleepers_done.fetch_add(1);
  });
  int64_t start = MonotonicNowNs();
  thread_id_t c = Spawn([&] { computed.store(true); });
  // The compute thread must complete well before the sleeps expire.
  while (!computed.load() && MonotonicNowNs() - start < 40 * 1000 * 1000) {
    thread_yield();
  }
  EXPECT_TRUE(computed.load());
  EXPECT_EQ(sleepers_done.load(), 0) << "sleepers woke too early";
  EXPECT_TRUE(Join(s1));
  EXPECT_TRUE(Join(s2));
  EXPECT_TRUE(Join(c));
  EXPECT_EQ(sleepers_done.load(), 2);
  EXPECT_GE(MonotonicNowNs() - start, 45 * 1000 * 1000);
  thread_setconcurrency(0);
}

TEST(Timer, SleepAccuracy) {
  int64_t start = MonotonicNowNs();
  thread_sleep_ms(20);
  int64_t elapsed = MonotonicNowNs() - start;
  EXPECT_GE(elapsed, 19 * 1000 * 1000);
  EXPECT_LT(elapsed, 500 * 1000 * 1000);  // generous upper bound
}

TEST(Timer, ManySleepersWakeInOrder) {
  static std::atomic<int> wake_order[3];
  static std::atomic<int> next_slot;
  next_slot.store(0);
  std::vector<thread_id_t> ids;
  int delays_ms[3] = {30, 10, 20};
  for (int i = 0; i < 3; ++i) {
    int delay = delays_ms[i];
    ids.push_back(Spawn([i, delay] {
      thread_sleep_ms(delay);
      wake_order[next_slot.fetch_add(1)].store(i);
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(wake_order[0].load(), 1);  // 10ms
  EXPECT_EQ(wake_order[1].load(), 2);  // 20ms
  EXPECT_EQ(wake_order[2].load(), 0);  // 30ms
}

std::atomic<int> g_xcpu{0};
void XcpuHandler(int sig) {
  EXPECT_EQ(sig, SIG_XCPU);
  g_xcpu.fetch_add(1);
}

// This binary runs no timeslice, LWP timer or profiling buffer, so only the
// armed limit can keep the LWP clock, and with it the check, running.
TEST(CpuLimit, FiresWithNothingElseOnTheClock) {
  thread_get_id();  // this thread's LWP counts in the usage read below
  ASSERT_FALSE(LwpRegistry::ClockNeeded());
  g_xcpu.store(0);
  signal_handler_set(SIG_XCPU, &XcpuHandler);
  process_set_cpu_limit(process_rusage().user_ns + 20 * 1000 * 1000, SIG_XCPU);
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  volatile long sink = 0;
  while (g_xcpu.load() == 0 && MonotonicNowNs() < deadline) {
    for (long i = 0; i < 1000000; ++i) {
      sink = sink + 1;
    }
    thread_poll();  // the delivered signal lands at a safe point
  }
  EXPECT_EQ(g_xcpu.load(), 1);
  EXPECT_TRUE(process_cpu_limit_exceeded());
  process_set_cpu_limit(0, SIG_XCPU);
  signal_handler_set(SIG_XCPU, SIG_DEFAULT);
}

}  // namespace
}  // namespace sunmt
