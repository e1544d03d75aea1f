// Lockdep tests: lock-order inversion detection, wait-for deadlock reports
// (local and cross-process), annotation escape hatches, and the
// no-false-positive guarantees the detector makes.
//
// OWN_MAIN: the death test needs the "threadsafe" style and several bodies
// toggle lockdep/inject state that must not leak between binaries.

#include <errno.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/thread.h"
#include "src/core/trace.h"
#include "src/debug/lockdep.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/spinlock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

std::string Report() {
  char buf[4096];
  lockdep::LastReport(buf, sizeof(buf));
  return std::string(buf);
}

// Polls `cond` for up to ~2s of wall time, yielding so user threads advance.
template <typename Cond>
bool PollFor(Cond cond) {
  int64_t deadline = MonotonicNowNs() + 2'000'000'000ll;
  while (!cond()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    thread_yield();
  }
  return true;
}

// One textual init site for all callers, so every lock initialized through
// here lands in one lockdep class (the compiler would otherwise unroll a
// two-iteration init loop into two call sites and two classes).
__attribute__((noinline)) void InitSameClass(mutex_t* mp, int level = 0) {
  mutex_init(mp, 0, nullptr);
  if (level > 0) {
    mutex_set_order(mp, level);
  }
}

// Distinct init site from InitSameClass: classes are interned by site and
// hierarchy annotations stick to the class, so the annotated and unannotated
// same-class tests must not share one.
__attribute__((noinline)) void InitSameClassUnannotated(mutex_t* mp) {
  mutex_init(mp, 0, nullptr);
  // Defeat tail-call optimization: a `jmp mutex_init` epilogue would make the
  // init pc the *caller's* return address, splitting the single init site.
  asm volatile("" ::: "memory");
}

class Lockdep : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::Enable(/*panic_on_report=*/false);
    lockdep::ResetForTest();
  }
  void TearDown() override { lockdep::Enable(false); }
};

TEST_F(Lockdep, SpinLockSelfRelockAborts) {
  EXPECT_DEATH(
      {
        SpinLock l;
        l.Lock();
        l.Lock();
      },
      "self-relock");
}

TEST_F(Lockdep, NamedClassesAppearInThreadState) {
  static mutex_t mu;
  mutex_init(&mu, 0, nullptr);
  mutex_set_name(&mu, "introspect-demo");
  static std::atomic<int> phase;
  phase.store(0);
  // A registry-visible thread holds the lock while main snapshots: the held
  // stack shows up in FormatProcessState()'s LOCKDEP section.
  thread_id_t holder = Spawn([] {
    mutex_enter(&mu);
    phase.store(1);
    while (phase.load() < 2) {
      thread_yield();
    }
    mutex_exit(&mu);
  });
  ASSERT_TRUE(PollFor([] { return phase.load() == 1; }));
  std::string state = FormatProcessState();
  phase.store(2);
  EXPECT_TRUE(Join(holder));
  EXPECT_NE(state.find("LOCKDEP on"), std::string::npos) << state;
  EXPECT_NE(state.find("introspect-demo"), std::string::npos) << state;
  EXPECT_NE(state.find("held"), std::string::npos) << state;
}

// With stats on, the process report appends FormatStats()'s histograms, and
// each lockdep counter still prints once, on the LOCKDEP line.
TEST_F(Lockdep, CountersPrintOnceWithStatsOn) {
  bool stats_were_on = Stats::Enabled();
  Stats::Enable();
  std::string state = FormatProcessState();
  if (!stats_were_on) {
    Stats::Disable();
  }
  ASSERT_NE(state.find("STATS"), std::string::npos) << state;
  for (const char* counter : {"checks=", "edges=", "inversions=", "deadlocks="}) {
    size_t at = state.find(counter);
    ASSERT_NE(at, std::string::npos) << counter;
    EXPECT_EQ(state.find(counter, at + 1), std::string::npos) << counter << state;
  }
}

TEST_F(Lockdep, AbBaInversionReportedBeforeDeadlock) {
  Trace::Enable(1024);
  mutex_t a = {}, b = {};
  mutex_init(&a, 0, nullptr);
  mutex_init(&b, 0, nullptr);
  mutex_set_name(&a, "inv-A");
  mutex_set_name(&b, "inv-B");
  // Establish A -> B, then violate with B -> A. Single thread: no deadlock
  // can actually occur, which is the point — the report fires at the second
  // acquisition *site*, purely from the order graph.
  mutex_enter(&a);
  mutex_enter(&b);
  mutex_exit(&b);
  mutex_exit(&a);
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u);
  mutex_enter(&b);
  mutex_enter(&a);  // closes the cycle
  mutex_exit(&a);
  mutex_exit(&b);
  lockdep::CountersSnapshot snap = lockdep::Snapshot();
  EXPECT_EQ(snap.inversions, 1u);
  EXPECT_GT(snap.checks, 0u);
  EXPECT_GT(snap.edges, 0u);
  std::string report = Report();
  EXPECT_NE(report.find("inv-A"), std::string::npos) << report;
  EXPECT_NE(report.find("inv-B"), std::string::npos) << report;
  EXPECT_NE(report.find("inversion"), std::string::npos) << report;
  // The report reaches the trace ring as a LOCKDEP event naming both classes.
  std::vector<TraceRecord> records;
  Trace::Collect(&records);
  bool traced = false;
  for (const TraceRecord& r : records) {
    traced |= r.event == TraceEvent::kLockdep;
  }
  EXPECT_TRUE(traced);
  // And FormatProcessState() carries it for post-mortems.
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("inversions=1"), std::string::npos) << state;
  EXPECT_NE(state.find("last report"), std::string::npos) << state;
  Trace::Disable();
}

TEST_F(Lockdep, TwoThreadAbBaInversion) {
  mutex_t a = {}, b = {};
  mutex_init(&a, 0, nullptr);
  mutex_init(&b, 0, nullptr);
  mutex_set_name(&a, "abba-A");
  mutex_set_name(&b, "abba-B");
  // Phased so the threads never actually deadlock; the graph still sees
  // A -> B from thread 1 and B -> A from thread 2.
  thread_id_t t1 = Spawn([&] {
    mutex_enter(&a);
    mutex_enter(&b);
    mutex_exit(&b);
    mutex_exit(&a);
  });
  EXPECT_TRUE(Join(t1));
  thread_id_t t2 = Spawn([&] {
    mutex_enter(&b);
    mutex_enter(&a);
    mutex_exit(&a);
    mutex_exit(&b);
  });
  EXPECT_TRUE(Join(t2));
  EXPECT_EQ(lockdep::Snapshot().inversions, 1u);
  std::string report = Report();
  EXPECT_NE(report.find("abba-A"), std::string::npos) << report;
  EXPECT_NE(report.find("abba-B"), std::string::npos) << report;
}

TEST_F(Lockdep, SemaAsLockInversion) {
  sema_t a = {}, b = {};
  sema_init(&a, 1, 0, nullptr);
  sema_init(&b, 1, 0, nullptr);
  sema_set_name(&a, "sema-A");
  sema_set_name(&b, "sema-B");
  sema_p(&a);
  sema_p(&b);
  sema_v(&b);
  sema_v(&a);
  sema_p(&b);
  sema_p(&a);
  sema_v(&a);
  sema_v(&b);
  EXPECT_EQ(lockdep::Snapshot().inversions, 1u);
  std::string report = Report();
  EXPECT_NE(report.find("sema-A"), std::string::npos) << report;
  EXPECT_NE(report.find("sema-B"), std::string::npos) << report;
}

// Semaphores that pass credits are counters, not locks. Each thread P's both
// semaphores, in opposite orders, but every credit it takes was V'd by the
// other thread, so neither thread ever holds one and there is no inversion.
TEST_F(Lockdep, SemaCreditsPassedBothWaysAreNoInversion) {
  sema_t a = {}, b = {};
  sema_init(&a, 0, 0, nullptr);
  sema_init(&b, 0, 0, nullptr);
  sema_set_name(&a, "credit-A");
  sema_set_name(&b, "credit-B");
  std::atomic<bool> taken{false};
  thread_id_t peer = Spawn([&] {
    sema_p(&a);  // the main thread's credits: A, then B
    sema_p(&b);
    taken.store(true);
    sema_v(&b);  // and credits back: B, then A
    sema_v(&a);
  });
  sema_v(&a);
  sema_v(&b);
  ASSERT_TRUE(PollFor([&] { return taken.load(); }));  // both credits gone
  sema_p(&b);
  sema_p(&a);
  EXPECT_TRUE(Join(peer));
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u) << Report();
}

TEST_F(Lockdep, RwlockWriterInversion) {
  rwlock_t a = {}, b = {};
  rw_init(&a, 0, nullptr);
  rw_init(&b, 0, nullptr);
  rw_set_name(&a, "rw-A");
  rw_set_name(&b, "rw-B");
  rw_enter(&a, RW_WRITER);
  rw_enter(&b, RW_WRITER);
  rw_exit(&b);
  rw_exit(&a);
  rw_enter(&b, RW_WRITER);
  rw_enter(&a, RW_WRITER);
  rw_exit(&a);
  rw_exit(&b);
  EXPECT_EQ(lockdep::Snapshot().inversions, 1u);
  std::string report = Report();
  EXPECT_NE(report.find("rw-A"), std::string::npos) << report;
  EXPECT_NE(report.find("rw-B"), std::string::npos) << report;
}

TEST_F(Lockdep, TrylockNeverReports) {
  mutex_t a = {}, b = {};
  mutex_init(&a, 0, nullptr);
  mutex_init(&b, 0, nullptr);
  mutex_enter(&a);
  mutex_enter(&b);
  mutex_exit(&b);
  mutex_exit(&a);
  // Reverse order via tryenter: cannot block, so no order check and no edge.
  mutex_enter(&b);
  ASSERT_EQ(mutex_tryenter(&a), 1);
  mutex_exit(&a);
  mutex_exit(&b);
  // A timed P is bounded, so it is a trylock to lockdep too: after s -> a,
  // a timed P of s under a adds no a -> s edge. (The tryp first records the
  // a -> s.qlock spinlock edge that both take.)
  sema_t s = {};
  sema_init(&s, 1, 0, nullptr);
  sema_p(&s);
  mutex_enter(&a);
  mutex_exit(&a);
  sema_v(&s);
  mutex_enter(&a);
  ASSERT_EQ(sema_tryp(&s), 1);
  sema_v(&s);
  uint64_t edges = lockdep::Snapshot().edges;
  ASSERT_EQ(sema_p_timed(&s, 1000 * 1000 * 1000), 1);
  sema_v(&s);
  mutex_exit(&a);
  EXPECT_EQ(lockdep::Snapshot().edges, edges);
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u) << Report();
}

TEST_F(Lockdep, HierarchyAnnotationPermitsSameClassNesting) {
  // Locks initialized at one site share a class; nesting them is the
  // address-order idiom and must be annotated to pass.
  mutex_t locks[2];
  for (mutex_t& m : locks) {
    InitSameClass(&m, /*level=*/7);  // one init site => one annotated class
  }
  mutex_enter(&locks[0]);
  mutex_enter(&locks[1]);
  mutex_exit(&locks[1]);
  mutex_exit(&locks[0]);
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u) << Report();
}

TEST_F(Lockdep, UnannotatedSameClassNestingReports) {
  mutex_t locks[2];
  for (mutex_t& m : locks) {
    InitSameClassUnannotated(&m);
  }
  mutex_enter(&locks[0]);
  mutex_enter(&locks[1]);
  mutex_exit(&locks[1]);
  mutex_exit(&locks[0]);
  EXPECT_EQ(lockdep::Snapshot().inversions, 1u);
  EXPECT_NE(Report().find("same class nested"), std::string::npos) << Report();
}

TEST_F(Lockdep, CondvarReacquireKeepsHeldStackBalanced) {
  mutex_t outer = {}, m = {};
  condvar_t cv = {};
  mutex_init(&outer, 0, nullptr);
  mutex_init(&m, 0, nullptr);
  cv_init(&cv, 0, nullptr);
  mutex_set_name(&outer, "cv-outer");
  mutex_set_name(&m, "cv-inner");
  mutex_enter(&outer);
  mutex_enter(&m);
  // Timed wait with no signaler: exercises block, timeout wake, and the
  // re-acquire edge (cv-outer -> cv-inner is re-added while outer is held).
  EXPECT_EQ(cv_timedwait(&cv, &m, 20 * 1000 * 1000), ETIME);
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("cv-outer"), std::string::npos) << state;
  EXPECT_NE(state.find("cv-inner"), std::string::npos) << state;
  mutex_exit(&m);
  mutex_exit(&outer);
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u) << Report();
  EXPECT_EQ(lockdep::Snapshot().deadlocks, 0u) << Report();
  // Stack drained: this thread holds nothing afterwards.
  mutex_enter(&outer);
  mutex_exit(&outer);
  EXPECT_EQ(lockdep::Snapshot().inversions, 0u) << Report();
}

TEST_F(Lockdep, TwoThreadDeadlockReported) {
  static mutex_t a, b;
  mutex_init(&a, 0, nullptr);
  mutex_init(&b, 0, nullptr);
  mutex_set_name(&a, "dead-A");
  mutex_set_name(&b, "dead-B");
  static std::atomic<int> ready;
  ready.store(0);
  // Real deadlock: the threads stay blocked forever (non-waitable; the
  // process exits around them). The second blocker's wait-for walk must see
  // the cycle and report it.
  Spawn(
      [] {
        mutex_enter(&a);
        ready.fetch_add(1);
        while (ready.load() < 2) {
          thread_yield();
        }
        mutex_enter(&b);
      },
      /*flags=*/0);
  Spawn(
      [] {
        mutex_enter(&b);
        ready.fetch_add(1);
        while (ready.load() < 2) {
          thread_yield();
        }
        mutex_enter(&a);
      },
      /*flags=*/0);
  EXPECT_TRUE(PollFor([] { return lockdep::Snapshot().deadlocks >= 1; }));
  std::string report = Report();
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("dead-A"), std::string::npos) << report;
  EXPECT_NE(report.find("dead-B"), std::string::npos) << report;
  // Both participants' held stacks appear in the process state.
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("dead-A"), std::string::npos) << state;
  EXPECT_NE(state.find("dead-B"), std::string::npos) << state;
}

TEST_F(Lockdep, ThreeThreadCycleReported) {
  static mutex_t m[3];
  for (mutex_t& mu : m) {
    mutex_init(&mu, 0, nullptr);
    mutex_set_order(&mu, 9);  // silence the (intended) order reports
  }
  static std::atomic<int> ready;
  ready.store(0);
  for (int i = 0; i < 3; ++i) {
    Spawn(
        [i] {
          mutex_enter(&m[i]);
          ready.fetch_add(1);
          while (ready.load() < 3) {
            thread_yield();
          }
          mutex_enter(&m[(i + 1) % 3]);
        },
        /*flags=*/0);
  }
  // The threads TwoThreadDeadlockReported leaves deadlocked can still report
  // their cycle of 2 after this test's reset: wait for this test's own report.
  EXPECT_TRUE(PollFor([] { return Report().find("cycle of 3") != std::string::npos; }))
      << Report();
  EXPECT_GE(lockdep::Snapshot().deadlocks, 1u);
}

TEST_F(Lockdep, CrossProcessDeadlockReported) {
  if (SUNMT_TEST_TSAN) {
    // fork1 from a threaded process leaves libtsan's runtime state torn in
    // both sides; later tests then SEGV inside the interceptors. The ipc
    // label is excluded from the TSan lane for the same reason.
    GTEST_SKIP() << "fork-based test is not TSan-safe";
  }
  // Mapped for the rest of the process, never unmapped: the parent's thread
  // below stays parked in FUTEX_WAIT on xp-M2, which the child held when it
  // exited, and a wait restarted after EINTR (LSan's stop-the-world at exit
  // is one source) reads that word again.
  static SharedArena* const arena =
      new SharedArena(SharedArena::CreateAnonymous(64 * 1024));
  struct Shared {
    mutex_t m1;
    mutex_t m2;
    std::atomic<int> ready;
  };
  auto* sh = arena->New<Shared>();
  mutex_init(&sh->m1, THREAD_SYNC_SHARED, nullptr);
  mutex_init(&sh->m2, THREAD_SYNC_SHARED, nullptr);
  mutex_set_name(&sh->m1, "xp-M1");
  mutex_set_name(&sh->m2, "xp-M2");
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: take m2, wait for the parent to hold m1 and block on m2, then
    // block on m1 — the child is the second blocker and must see the
    // cross-process cycle via the shared-memory breadcrumbs.
    lockdep::Enable(false);
    Spawn(
        [sh] {
          mutex_enter(&sh->m2);
          sh->ready.fetch_add(1);
          while (sh->ready.load() < 2) {
            thread_yield();
          }
          thread_sleep_ns(100 * 1000 * 1000);  // let the parent block first
          mutex_enter(&sh->m1);
        },
        /*flags=*/0);
    // The threads an earlier test left deadlocked can still report after
    // this test's reset, and the child inherits that report and its count:
    // wait for the report that names this test's own lock.
    char buf[4096];
    PollFor([&buf] {
      lockdep::LastReport(buf, sizeof(buf));
      return strstr(buf, "xp-M1") != nullptr;
    });
    bool ok = lockdep::Snapshot().deadlocks >= 1 &&
              strstr(buf, "xp-M1") != nullptr && strstr(buf, "pid") != nullptr;
    _exit(ok ? 0 : 13);
  }
  Spawn(
      [sh] {
        mutex_enter(&sh->m1);
        sh->ready.fetch_add(1);
        while (sh->ready.load() < 2) {
          thread_yield();
        }
        mutex_enter(&sh->m2);
      },
      /*flags=*/0);
  EXPECT_EQ(WaitForChild(pid), 0);
}

TEST_F(Lockdep, DisabledModeCountsNothing) {
  lockdep::Disable();
  lockdep::ResetForTest();
  mutex_t a = {}, b = {};
  mutex_init(&a, 0, nullptr);
  mutex_init(&b, 0, nullptr);
  mutex_enter(&a);
  mutex_enter(&b);
  mutex_exit(&b);
  mutex_exit(&a);
  mutex_enter(&b);
  mutex_enter(&a);
  mutex_exit(&a);
  mutex_exit(&b);
  lockdep::CountersSnapshot snap = lockdep::Snapshot();
  EXPECT_EQ(snap.checks, 0u);
  EXPECT_EQ(snap.inversions, 0u);
}

// 64-seed shakedown: the detector itself runs under schedule perturbation.
// Each seed must (a) still deterministically report the planted inversion and
// (b) never fabricate a deadlock out of a plain contended workload.
TEST_F(Lockdep, ShakedownSweep) {
  for (int seed = 1; seed <= sunmt_test::SweepSeeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    inject::Configure(static_cast<uint64_t>(seed), 0.02,
                      inject::kOpYield | inject::kOpDelay);
    lockdep::ResetForTest();
    mutex_t a = {}, b = {}, hot = {};
    mutex_init(&a, 0, nullptr);
    mutex_init(&b, 0, nullptr);
    mutex_init(&hot, 0, nullptr);
    mutex_set_name(&a, "sweep-A");
    mutex_set_name(&b, "sweep-B");
    mutex_set_name(&hot, "sweep-hot");
    std::atomic<uint64_t> counter{0};
    thread_id_t contenders[4];
    for (thread_id_t& id : contenders) {
      id = Spawn([&] {
        for (int i = 0; i < 200; ++i) {
          mutex_enter(&hot);
          counter.fetch_add(1, std::memory_order_relaxed);
          mutex_exit(&hot);
        }
      });
    }
    thread_id_t inverter = Spawn([&] {
      mutex_enter(&a);
      mutex_enter(&b);
      mutex_exit(&b);
      mutex_exit(&a);
      mutex_enter(&b);
      mutex_enter(&a);
      mutex_exit(&a);
      mutex_exit(&b);
    });
    EXPECT_TRUE(Join(inverter));
    for (thread_id_t id : contenders) {
      EXPECT_TRUE(Join(id));
    }
    inject::Disable();
    lockdep::CountersSnapshot snap = lockdep::Snapshot();
    EXPECT_EQ(snap.inversions, 1u) << Report();
    EXPECT_EQ(snap.deadlocks, 0u) << Report();
    EXPECT_EQ(counter.load(), 4u * 200u);
    if (::testing::Test::HasFailure()) {
      fprintf(stderr,
              "[lockdep-shakedown] FAILED seed=%d -- replay with "
              "SUNMT_INJECT=seed=%d,rate=0.02,ops=yield|delay "
              "SUNMT_DEBUG=lockorder\n",
              seed, seed);
      return;
    }
  }
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  return RUN_ALL_TESTS();
}
