// Time-slice preemption tests. This binary configures a 5ms timeslice and one
// pool LWP, then checks that CPU-bound unbound threads share the LWP through
// safe-point preemption without any voluntary thread_yield().

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/ipc/fork1.h"
#include "src/lwp/lwp.h"
#include "src/rlimit/rlimit.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

TEST(Preempt, CpuBoundThreadsShareOneLwp) {
  thread_setconcurrency(1);
  // Two CPU hogs that never yield; they only pass safe points via thread_poll.
  // With preemption they interleave; without it the first would finish alone.
  static std::atomic<long> progress_a, progress_b;
  static std::atomic<bool> done_a, done_b;
  static std::atomic<bool> overlapped;
  progress_a.store(0);
  progress_b.store(0);
  done_a.store(false);
  done_b.store(false);
  overlapped.store(false);

  constexpr long kWork = 60L * 1000 * 1000;
  thread_id_t a = Spawn([&] {
    volatile long sink = 0;
    for (long i = 0; i < kWork; ++i) {
      sink = sink + 1;
      if (i % 4096 == 0) {
        progress_a.store(i);
        if (progress_b.load() > 0 && !done_b.load()) {
          overlapped.store(true);
        }
        thread_poll();  // safe point: preemption can land here
      }
    }
    done_a.store(true);
  });
  thread_id_t b = Spawn([&] {
    volatile long sink = 0;
    for (long i = 0; i < kWork; ++i) {
      sink = sink + 1;
      if (i % 4096 == 0) {
        progress_b.store(i);
        if (progress_a.load() > 0 && !done_a.load()) {
          overlapped.store(true);
        }
        thread_poll();
      }
    }
    done_b.store(true);
  });
  EXPECT_TRUE(Join(a));
  EXPECT_TRUE(Join(b));
  EXPECT_TRUE(done_a.load());
  EXPECT_TRUE(done_b.load());
  // Both made progress while the other was still running: they timesliced.
  EXPECT_TRUE(overlapped.load()) << "threads ran strictly serially: no preemption";
  // The scheduler accounted the forced switches as preemptions.
  EXPECT_GT(SnapshotSchedStats().preemptions, 0u);
  thread_setconcurrency(0);
}

TEST(Preempt, BoundThreadsAreNotPreemptedByThePackage) {
  // A bound thread owns its LWP; thread_poll on it must not requeue anything.
  static std::atomic<bool> ran;
  ran.store(false);
  thread_id_t bound = Spawn(
      [&] {
        volatile long sink = 0;
        for (long i = 0; i < 30L * 1000 * 1000; ++i) {
          sink = sink + 1;
          if (i % 65536 == 0) {
            thread_poll();
          }
        }
        ran.store(true);
      },
      THREAD_WAIT | THREAD_BIND_LWP);
  EXPECT_TRUE(Join(bound));
  EXPECT_TRUE(ran.load());
}

TEST(Preempt, BoundThreadNeverCountedAsPreempted) {
  // The timeslice is armed in this binary (5ms) and the bound hog below runs
  // well past it, polling at safe points the whole time. A bound thread owns
  // its LWP: the package must neither arm the slice for it nor consume a
  // leftover preempt flag, so the preemption counter cannot move while it is
  // the only thread burning CPU.
  uint64_t before = SnapshotSchedStats().preemptions;
  static std::atomic<bool> ran;
  ran.store(false);
  thread_id_t bound = Spawn(
      [&] {
        int64_t deadline = MonotonicNowNs() + 30 * 1000 * 1000;  // ~6 slices
        volatile long sink = 0;
        while (MonotonicNowNs() < deadline) {
          for (long i = 0; i < 100000; ++i) {
            sink = sink + 1;
          }
          thread_poll();  // safe point: would consume preempt_pending if buggy
        }
        ran.store(true);
      },
      THREAD_WAIT | THREAD_BIND_LWP);
  EXPECT_TRUE(Join(bound));
  EXPECT_TRUE(ran.load());
  // Nothing else was runnable (main blocked in Join), so any increment could
  // only have come from the bound thread being preempted by the package.
  EXPECT_EQ(SnapshotSchedStats().preemptions, before);
}

TEST(RlimitExt, ProcessRusageSumsLwps) {
  ProcessUsage usage = process_rusage();
  EXPECT_GE(usage.lwps, 1);
  EXPECT_GT(usage.user_ns, 0);
  // Burn CPU and observe the sum grow.
  volatile long sink = 0;
  for (long i = 0; i < 20L * 1000 * 1000; ++i) {
    sink = sink + 1;
  }
  ProcessUsage after = process_rusage();
  EXPECT_GT(after.user_ns, usage.user_ns);
}

std::atomic<int> g_xcpu{0};
void XcpuHandler(int sig) {
  EXPECT_EQ(sig, SIG_XCPU);
  g_xcpu.fetch_add(1);
}

TEST(RlimitExt, SoftCpuLimitDeliversSigXcpu) {
  g_xcpu.store(0);
  signal_handler_set(SIG_XCPU, &XcpuHandler);
  ProcessUsage now = process_rusage();
  // Arm a limit just above current usage, then burn through it.
  process_set_cpu_limit(now.user_ns + 20 * 1000 * 1000, SIG_XCPU);
  int64_t deadline = MonotonicNowNs() + 5 * 1000 * 1000 * 1000ll;
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

// In a fork1() child: burns CPU until SIG_XCPU arrives or `timeout_ns`
// passes. Exits 0 once the signal has arrived, 10 if it never does.
[[noreturn]] void BurnUntilSigXcpu(int64_t timeout_ns) {
  g_xcpu.store(0);
  int64_t deadline = MonotonicNowNs() + timeout_ns;
  volatile long sink = 0;
  while (g_xcpu.load() == 0 && MonotonicNowNs() < deadline) {
    for (long i = 0; i < 1000000; ++i) {
      sink = sink + 1;
    }
    thread_poll();  // the delivered signal lands at a safe point
  }
  _exit(g_xcpu.load() == 1 ? 0 : 10);
}

// In a fork1() child: arms a soft limit just above current usage and burns
// through it.
[[noreturn]] void ChildBurnsThroughCpuLimit() {
  signal_handler_set(SIG_XCPU, &XcpuHandler);
  process_set_cpu_limit(process_rusage().user_ns + 20 * 1000 * 1000, SIG_XCPU);
  BurnUntilSigXcpu(5 * 1000 * 1000 * 1000ll);
}

// Arms a soft limit 100 ms of CPU above this process's usage, with the
// counting handler installed. A fork1() child inherits both.
void ArmInheritableCpuLimit() {
  g_xcpu.store(0);
  signal_handler_set(SIG_XCPU, &XcpuHandler);
  process_set_cpu_limit(process_rusage().user_ns + 100 * 1000 * 1000, SIG_XCPU);
}

// A fork1() child rebuilds the runtime from the same configuration (one pool
// LWP, 5 ms slices), so two CPU hogs there must still be timesliced — which
// needs the LWP clock, whose service thread did not survive the fork, running
// again. Exit codes name the failing step.
TEST(Fork1, ChildKeepsLwpClockAndPreemption) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  Runtime::Get();  // the parent's runtime starts the clock before the fork
  uint64_t parent_ticks = LwpRegistry::ClockTicks();
  ASSERT_TRUE(sunmt_test::WaitUntil(
      [&] { return LwpRegistry::ClockTicks() != parent_ticks; },
      5ll * 1000 * 1000 * 1000));
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    uint64_t ticks = LwpRegistry::ClockTicks();
    uint64_t preemptions = SnapshotSchedStats().preemptions;
    static int64_t deadline;
    deadline = MonotonicNowNs() + 200 * 1000 * 1000;
    auto hog = [] {
      volatile long sink = 0;
      while (MonotonicNowNs() < deadline) {
        for (long i = 0; i < 4096; ++i) {
          sink = sink + 1;
        }
        thread_poll();  // safe point: preemption can land here
      }
    };
    thread_id_t a = Spawn(hog);
    thread_id_t b = Spawn(hog);
    if (!Join(a) || !Join(b)) {
      _exit(10);
    }
    if (LwpRegistry::ClockTicks() == ticks) {
      _exit(11);  // the clock is gone
    }
    _exit(SnapshotSchedStats().preemptions > preemptions ? 0 : 12);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
}

// A CPU limit armed and disarmed in the parent must still work in a fork1()
// child: a soft limit armed there fires. Exit codes name the failing step.
TEST(Fork1, ChildCpuLimitFires) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  // Arm the check here (a limit no test reaches), then disarm it.
  process_set_cpu_limit(process_rusage().user_ns + 3600 * 1000000000ll,
                        SIG_XCPU);
  process_set_cpu_limit(0, SIG_XCPU);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ChildBurnsThroughCpuLimit();
  }
  EXPECT_EQ(WaitForChild(pid), 0);
}

// A limit still armed at the fork is plain state the child inherits: the
// child's rebuilt runtime checks it on its own LWP clock, so the child burns
// through the parent's limit without setting one.
TEST(Fork1, ChildKeepsArmedCpuLimit) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  ArmInheritableCpuLimit();
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    BurnUntilSigXcpu(20ll * 1000 * 1000 * 1000);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  process_set_cpu_limit(0, SIG_XCPU);
  signal_handler_set(SIG_XCPU, SIG_DEFAULT);
}

// The same limit inherited through two fork1()s: the child makes no package
// call (so it never builds a runtime) before it forks the grandchild, whose
// rebuilt runtime must still check the limit. The test process itself never
// reaches its limit while it waits.
TEST(Fork1, GrandchildKeepsInheritedCpuLimit) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  ArmInheritableCpuLimit();
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    pid_t grandchild = fork1();
    if (grandchild == 0) {
      BurnUntilSigXcpu(20ll * 1000 * 1000 * 1000);
    }
    _exit(grandchild > 0 ? WaitForChild(grandchild) : 20);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  EXPECT_EQ(g_xcpu.load(), 0);
  process_set_cpu_limit(0, SIG_XCPU);
  signal_handler_set(SIG_XCPU, SIG_DEFAULT);
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = 1;
  config.preempt_timeslice_ns = 5 * 1000 * 1000;  // 5ms slices
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
