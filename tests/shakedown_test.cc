// Shakedown suite: hammer bodies run across a seed sweep of the injection
// layer (src/inject) plus deterministic regressions for the races it has
// already flushed out.
//
// Sweep protocol: every body runs once per seed with inject::Configure(seed,
// rate, ops); any gtest failure carries a SCOPED_TRACE naming the body and
// seed, and the sweep stops after printing a replay line — so the ctest log
// always records the seed that reproduces a failure. Seed count defaults to
// 64 (SUNMT_SHAKEDOWN_SEEDS overrides; the TSan lane uses the same default).
//
// Bodies avoid ASSERT/EXPECT on worker threads (gtest failure recording is not
// thread-safe); workers count violations into atomics and the main thread
// asserts.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/io/io.h"
#include "src/msgq/message_queue.h"
#include "src/net/net.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/util/spinlock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::RunSweep;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;
using sunmt_test::WaitUntil;

constexpr int64_t kUs = 1000;
constexpr int64_t kMs = 1000 * kUs;

constexpr uint32_t kSchedOps =
    inject::kOpYield | inject::kOpDelay | inject::kOpSteal;

// ---- Injector unit checks ----------------------------------------------------

TEST(Inject, SpecParsing) {
  EXPECT_TRUE(inject::ConfigureFromSpec("seed=42,rate=0.25,ops=yield|steal"));
  inject::Counters c = inject::Snapshot();
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.rate, 0.25);
  EXPECT_EQ(c.ops, inject::kOpYield | inject::kOpSteal);

  EXPECT_TRUE(inject::ConfigureFromSpec("seed=7,rate=0.5,ops=all"));
  EXPECT_EQ(inject::Snapshot().ops, inject::kOpAll);

  EXPECT_FALSE(inject::ConfigureFromSpec("rate=banana,ops=yield"));
  EXPECT_FALSE(inject::Enabled());
  EXPECT_FALSE(inject::ConfigureFromSpec("ops=frobnicate"));
  EXPECT_FALSE(inject::Enabled());
  EXPECT_FALSE(inject::ConfigureFromSpec(""));
  EXPECT_FALSE(inject::ConfigureFromSpec(nullptr));

  // Unspecified ops default to the always-legal schedule family.
  EXPECT_TRUE(inject::ConfigureFromSpec("seed=3"));
  EXPECT_EQ(inject::Snapshot().ops, kSchedOps);
  inject::Disable();
  EXPECT_FALSE(inject::Enabled());
}

TEST(Inject, HooksFireAndCount) {
  inject::Configure(11, 1.0, inject::kOpYield);
  uint64_t yields_before = inject::Snapshot().yields;
  SpinLock lock;
  lock.Lock();
  lock.Unlock();
  EXPECT_GT(inject::Snapshot().yields, yields_before);

  inject::Configure(11, 1.0, inject::kOpShort);
  size_t clamped = inject::ShortTransfer(inject::kIoSyscall, 100);
  EXPECT_GE(clamped, 1u);
  EXPECT_LT(clamped, 100u);
  EXPECT_EQ(inject::ShortTransfer(inject::kIoSyscall, 1), 1u);

  inject::Disable();
  EXPECT_FALSE(inject::Fault(inject::kFutexWait));
  EXPECT_EQ(inject::ShortTransfer(inject::kIoSyscall, 100), 100u);

  // Same seed, same per-thread stream: decisions replay identically.
  inject::Configure(99, 0.5, inject::kOpShort);
  std::vector<size_t> first;
  for (int i = 0; i < 32; ++i) {
    first.push_back(inject::ShortTransfer(inject::kNetSyscall, 1000));
  }
  inject::Configure(99, 0.5, inject::kOpShort);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(inject::ShortTransfer(inject::kNetSyscall, 1000), first[i]);
  }
  inject::Disable();
}

TEST(Inject, CountersShowUpInProcessState) {
  inject::Configure(5, 1.0, inject::kOpDelay);
  SpinLock lock;
  lock.Lock();
  lock.Unlock();
  inject::Disable();
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("INJECT"), std::string::npos);
  EXPECT_NE(state.find("seed=5"), std::string::npos);
}

// ---- Deterministic regressions ----------------------------------------------

// Blocks the service thread inside a timer callback for `ms` milliseconds,
// first setting *started when it is non-null. Deliberately violates the
// "callbacks must be short" rule: holding the service thread between claiming
// a due timer and running its callback is exactly the window the stale-timer
// regressions below need to widen deterministically. It sleeps in the kernel
// (usleep), NOT thread_sleep_ns, because holding the service thread is the
// point and package sleeps ride the same wheel.
void SleepCallback(void* started, uint64_t ms) {
  if (started != nullptr) {
    static_cast<std::atomic<bool>*>(started)->store(true);
  }
  usleep(static_cast<useconds_t>(ms) * 1000);
}

// Right before its first timed wait, thread A arms two sleeping callbacks
// (from A's LWP, so they share a wheel shard with A's own timer). The first
// holds the service thread past A's deadline; the next sweep then claims the
// second callback and A's timer together and runs the second first, so while
// it sleeps A's timer is claimed but has not fired. Returns at once; the
// caller's timed wait must use kStaleWaitNs. The test clears
// g_second_sleeper_running before it starts A.
std::atomic<bool> g_second_sleeper_running{false};
constexpr int64_t kStaleWaitNs = 45 * kMs;

void ArmStaleFireWindow() {
  // Service thread held ~10..70 ms; the 40 ms callback and A's 45 ms timer
  // are claimed at ~70 ms and the callback holds it again until ~170 ms.
  timer_arm_callback(10 * kMs, &SleepCallback, nullptr, 60);
  timer_arm_callback(40 * kMs, &SleepCallback, &g_second_sleeper_running, 100);
}

// A timed waiter whose wake races its own timeout fire must keep its FIFO
// position: the stale fire (its waiter is gone, or waits again under a new
// generation) must not touch the queue. The broken variant removed and
// re-pushed the waiter at the tail, so the next hand-off went to the wrong
// thread.
//
// Main hands A a credit inside the window ArmStaleFireWindow builds, so A's
// cancel fails and its timer fires after the wake: the fire count grows by 3.
// Main then waits for A to block in its second wait and for B to queue behind
// it before the credits that must reach A first.
TEST(ShakedownRegression, SemaStaleTimerKeepsFifoPosition) {
  sema_t s;
  sema_init(&s, 0, 0, nullptr);
  std::atomic<int> seq{0};
  char order[3] = {0, 0, 0};
  std::atomic<bool> a_in_second{false};
  std::atomic<int> rc1{-1}, rc2{-1};
  uint64_t fires_before = timer_fire_count();
  g_second_sleeper_running.store(false);

  thread_id_t a = Spawn([&] {
    ArmStaleFireWindow();
    rc1.store(sema_p_timed(&s, kStaleWaitNs));  // woken by main's credit
    a_in_second.store(true);
    rc2.store(sema_p_timed(&s, 2000 * kMs));
    order[seq.fetch_add(1)] = 'A';
  });
  EXPECT_TRUE(WaitUntil([] { return g_second_sleeper_running.load(); },
                        5000 * kMs));
  sema_v(&s);  // A's timer is claimed: its cancel will fail
  EXPECT_TRUE(WaitUntil([&] { return a_in_second.load(); }, 5000 * kMs));
  EXPECT_TRUE(WaitForState(a, "BLOCKED", 5000 * kMs));
  thread_id_t b = Spawn([&] {
    sema_p(&s);
    order[seq.fetch_add(1)] = 'B';
  });
  EXPECT_TRUE(WaitForState(b, "BLOCKED", 5000 * kMs));
  sema_v(&s);  // must wake A — the FIFO head
  EXPECT_TRUE(WaitUntil([&] { return seq.load() >= 1; }, 5000 * kMs));
  sema_v(&s);  // wakes B
  EXPECT_TRUE(Join(a));
  EXPECT_TRUE(Join(b));

  EXPECT_EQ(rc1.load(), 1);
  EXPECT_EQ(rc2.load(), 1);
  EXPECT_EQ(order[0], 'A') << "stale timer fire cost A its FIFO position";
  EXPECT_EQ(order[1], 'B');
  EXPECT_EQ(timer_fire_count() - fires_before, 3u)
      << "A's timer did not fire stale";
}

// cv_timedwait twin of the above.
TEST(ShakedownRegression, CvStaleTimerKeepsFifoPosition) {
  mutex_t m;
  condvar_t cv;
  mutex_init(&m, 0, nullptr);
  cv_init(&cv, 0, nullptr);
  std::atomic<int> seq{0};
  char order[3] = {0, 0, 0};
  std::atomic<bool> a_in_second{false};
  std::atomic<int> rc1{-1}, rc2{-1}, rcb{-1};
  uint64_t fires_before = timer_fire_count();
  g_second_sleeper_running.store(false);

  thread_id_t a = Spawn([&] {
    mutex_enter(&m);
    ArmStaleFireWindow();
    rc1.store(cv_timedwait(&cv, &m, kStaleWaitNs));  // signaled by main
    mutex_exit(&m);
    a_in_second.store(true);
    mutex_enter(&m);
    rc2.store(cv_timedwait(&cv, &m, 2000 * kMs));
    order[seq.fetch_add(1)] = 'A';
    mutex_exit(&m);
  });
  EXPECT_TRUE(WaitUntil([] { return g_second_sleeper_running.load(); },
                        5000 * kMs));
  cv_signal(&cv);  // wakes A's first wait; its claimed timer fires later, stale
  EXPECT_TRUE(WaitUntil([&] { return a_in_second.load(); }, 5000 * kMs));
  EXPECT_TRUE(WaitForState(a, "BLOCKED", 5000 * kMs));
  thread_id_t b = Spawn([&] {
    mutex_enter(&m);
    rcb.store(cv_timedwait(&cv, &m, 2000 * kMs));
    order[seq.fetch_add(1)] = 'B';
    mutex_exit(&m);
  });
  EXPECT_TRUE(WaitForState(b, "BLOCKED", 5000 * kMs));
  cv_signal(&cv);  // must wake A — the FIFO head
  EXPECT_TRUE(WaitUntil([&] { return seq.load() >= 1; }, 5000 * kMs));
  cv_signal(&cv);  // wakes B
  EXPECT_TRUE(Join(a));
  EXPECT_TRUE(Join(b));

  EXPECT_EQ(rc1.load(), 0);
  EXPECT_EQ(rc2.load(), 0);
  EXPECT_EQ(rcb.load(), 0);
  EXPECT_EQ(order[0], 'A') << "stale timer fire cost A its FIFO signal position";
  EXPECT_EQ(order[1], 'B');
  EXPECT_EQ(timer_fire_count() - fires_before, 3u)
      << "A's timer did not fire stale";
}

// Re-initializing a previously used (even mid-use-corrupted) variable must
// reset its internal qlock: the paper allows re-init, and copied/recycled
// storage can carry a locked image. Before the fix each of these re-inits left
// the poisoned qlock held and the first waiter spun forever (caught here by
// the ctest timeout).
TEST(ShakedownRegression, ReinitResetsInternalQlock) {
  sema_t s;
  sema_init(&s, 0, 0, nullptr);
  s.qlock.Lock();  // simulate storage recycled from a variable mid-section
  sema_init(&s, 1, 0, nullptr);
  EXPECT_EQ(sema_tryp(&s), 1);
  sema_v(&s);
  sema_p(&s);

  mutex_t m;
  mutex_init(&m, 0, nullptr);
  m.qlock.Lock();
  mutex_init(&m, 0, nullptr);
  mutex_enter(&m);
  mutex_exit(&m);

  condvar_t cv;
  cv_init(&cv, 0, nullptr);
  cv.qlock.Lock();
  cv_init(&cv, 0, nullptr);
  mutex_enter(&m);
  EXPECT_EQ(cv_timedwait(&cv, &m, 2 * kMs), ETIME);
  mutex_exit(&m);

  rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  rw.qlock.Lock();
  rw_init(&rw, 0, nullptr);
  rw_enter(&rw, RW_WRITER);
  rw_exit(&rw);
}

// ---- Sweep bodies ------------------------------------------------------------

TEST(ShakedownSweep, MutexHammer) {
  RunSweep("shakedown", "mutex", 0.15, kSchedOps, [](SplitMix64& rng) {
    mutex_t m;
    mutex_init(&m, 0, nullptr);
    constexpr int kThreads = 3;
    const int iters = 24 + static_cast<int>(rng.NextBounded(16));
    int counter = 0;  // guarded by m
    std::vector<thread_id_t> ids;
    for (int t = 0; t < kThreads; ++t) {
      ids.push_back(Spawn([&m, &counter, iters] {
        for (int i = 0; i < iters; ++i) {
          if ((i & 7) == 0 && mutex_tryenter(&m)) {
            ++counter;
            mutex_exit(&m);
            continue;
          }
          mutex_enter(&m);
          ++counter;
          mutex_exit(&m);
        }
      }));
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(counter, kThreads * iters);
  });
}

TEST(ShakedownSweep, SharedSyncHammer) {
  // THREAD_SYNC_SHARED variants run futex protocols under KernelWaitScope;
  // the fault op feeds them spurious futex wakeups, which the protocol is
  // documented to absorb (waiters re-test).
  RunSweep("shakedown", "shared-sync", 0.1,
           kSchedOps | inject::kOpFault, [](SplitMix64&) {
    mutex_t m;
    sema_t gate;
    mutex_init(&m, THREAD_SYNC_SHARED, nullptr);
    sema_init(&gate, 1, THREAD_SYNC_SHARED, nullptr);
    constexpr int kThreads = 3, kIters = 16;
    int counter = 0;        // guarded by m
    int gate_counter = 0;   // guarded by gate (binary semaphore)
    std::vector<thread_id_t> ids;
    for (int t = 0; t < kThreads; ++t) {
      ids.push_back(Spawn([&] {
        for (int i = 0; i < kIters; ++i) {
          mutex_enter(&m);
          ++counter;
          mutex_exit(&m);
          sema_p(&gate);
          ++gate_counter;
          sema_v(&gate);
        }
      }));
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(counter, kThreads * kIters);
    EXPECT_EQ(gate_counter, kThreads * kIters);
  });
}

TEST(ShakedownSweep, CvTimedProducerConsumer) {
  RunSweep("shakedown", "cv-timed", 0.15, kSchedOps, [](SplitMix64& rng) {
    mutex_t m;
    condvar_t cv;
    mutex_init(&m, 0, nullptr);
    cv_init(&cv, 0, nullptr);
    constexpr int kItems = 32;
    int items = 0;     // guarded by m
    bool done = false; // guarded by m
    std::atomic<int> consumed{0};
    const int64_t wait_ns = static_cast<int64_t>(200 + rng.NextBounded(600)) * kUs;
    std::vector<thread_id_t> consumers;
    for (int t = 0; t < 2; ++t) {
      consumers.push_back(Spawn([&] {
        for (;;) {
          mutex_enter(&m);
          while (items == 0 && !done) {
            cv_timedwait(&cv, &m, wait_ns);  // timeouts just re-test
          }
          if (items > 0) {
            --items;
            mutex_exit(&m);
            consumed.fetch_add(1);
            continue;
          }
          mutex_exit(&m);
          return;  // done && empty
        }
      }));
    }
    thread_id_t producer = Spawn([&] {
      for (int i = 0; i < kItems; ++i) {
        mutex_enter(&m);
        ++items;
        cv_signal(&cv);
        mutex_exit(&m);
      }
    });
    EXPECT_TRUE(Join(producer));
    mutex_enter(&m);
    done = true;
    cv_broadcast(&cv);
    mutex_exit(&m);
    for (thread_id_t id : consumers) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(consumed.load(), kItems);
  });
}

TEST(ShakedownSweep, SemaTimedCreditConservation) {
  RunSweep("shakedown", "sema-timed", 0.15, kSchedOps, [](SplitMix64& rng) {
    sema_t s;
    sema_init(&s, 0, 0, nullptr);
    constexpr int kWorkers = 3, kIters = 8, kCredits = 12;
    std::atomic<int> successes{0};
    std::vector<thread_id_t> ids;
    for (int t = 0; t < kWorkers; ++t) {
      const int64_t timeout_ns =
          static_cast<int64_t>(100 + rng.NextBounded(500)) * kUs;
      ids.push_back(Spawn([&s, &successes, timeout_ns] {
        for (int i = 0; i < kIters; ++i) {
          successes.fetch_add(sema_p_timed(&s, timeout_ns));
        }
      }));
    }
    for (int i = 0; i < kCredits; ++i) {
      sema_v(&s);
      if ((i & 3) == 0) {
        thread_sleep_ns(static_cast<int64_t>(rng.NextBounded(300)) * kUs);
      }
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    int drained = 0;
    while (sema_tryp(&s)) {
      ++drained;
    }
    // Every credit is either consumed by a successful P or still on the
    // semaphore — a timeout that raced a hand-off must not leak or eat one.
    EXPECT_EQ(successes.load() + drained, kCredits);
  });
}

TEST(ShakedownSweep, RwlockReadersSeeConsistentPairs) {
  RunSweep("shakedown", "rwlock", 0.15, kSchedOps, [](SplitMix64&) {
    rwlock_t rw;
    rw_init(&rw, 0, nullptr);
    long a = 0, b = 0;  // updated together under the write lock
    std::atomic<int> violations{0};
    std::vector<thread_id_t> ids;
    for (int t = 0; t < 2; ++t) {
      ids.push_back(Spawn([&] {  // writer
        for (int i = 0; i < 12; ++i) {
          rw_enter(&rw, RW_WRITER);
          ++a;
          for (int d = 0; d < 32; ++d) {
            CpuRelax();
          }
          ++b;
          rw_exit(&rw);
        }
      }));
    }
    for (int t = 0; t < 2; ++t) {
      ids.push_back(Spawn([&] {  // reader, occasionally upgrading
        for (int i = 0; i < 24; ++i) {
          rw_enter(&rw, RW_READER);
          if (a != b) {
            violations.fetch_add(1);
          }
          if ((i & 7) == 0 && rw_tryupgrade(&rw)) {
            ++a;
            ++b;
            rw_downgrade(&rw);
            if (a != b) {
              violations.fetch_add(1);
            }
          }
          rw_exit(&rw);
        }
      }));
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(a, b);
  });
}

TEST(ShakedownSweep, MsgqMpmcExactDelivery) {
  RunSweep("shakedown", "msgq", 0.15, kSchedOps, [](SplitMix64&) {
    constexpr uint32_t kCap = 4;
    constexpr int kProducers = 2, kPerProducer = 12;
    constexpr int kTotal = kProducers * kPerProducer;
    std::vector<uint64_t> mem(
        (MessageQueue::FootprintBytes(sizeof(uint32_t), kCap) + 7) / 8, 0);
    MessageQueue* q =
        MessageQueue::CreateAt(mem.data(), sizeof(uint32_t), kCap, 0);
    ASSERT_NE(q, nullptr);
    std::atomic<int> seen[kTotal];
    for (auto& s : seen) {
      s.store(0);
    }
    std::atomic<int> consumed{0};
    std::vector<thread_id_t> ids;
    for (int p = 0; p < kProducers; ++p) {
      ids.push_back(Spawn([q, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          uint32_t id = static_cast<uint32_t>(p * kPerProducer + i);
          if ((i & 3) == 0) {
            while (!q->SendTimed(&id, sizeof(id), 2 * kMs)) {
            }
          } else {
            q->Send(&id, sizeof(id));
          }
        }
      }));
    }
    for (int c = 0; c < 2; ++c) {
      ids.push_back(Spawn([&, q] {
        while (consumed.load() < kTotal) {
          uint32_t id = 0;
          size_t n = q->RecvTimed(&id, sizeof(id), 1 * kMs);
          if (n == SIZE_MAX) {
            continue;  // timed out; re-check
          }
          if (n == sizeof(id) && id < kTotal) {
            seen[id].fetch_add(1);
          }
          consumed.fetch_add(1);
        }
      }));
    }
    for (thread_id_t id : ids) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(q->Depth(), 0u);  // exact, not approximate: fully drained
    for (int i = 0; i < kTotal; ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "message " << i;
    }
  });
}

TEST(ShakedownSweep, NetEchoUnderFaultsAndShortTransfers) {
  // Full fault family: injected EAGAIN-before-syscall, spurious readiness, and
  // short reads/writes. Both sides already loop on byte counts and tolerate
  // ETIME, so the invariant is exact end-to-end delivery.
  RunSweep("shakedown", "net-echo", 0.08, inject::kOpAll, [](SplitMix64&) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(net_register(fds[0]), 0);
    ASSERT_EQ(net_register(fds[1]), 0);
    constexpr size_t kChunk = 48;
    constexpr int kChunks = 12;
    constexpr size_t kTotal = kChunk * kChunks;
    std::atomic<int> server_errors{0};
    thread_id_t server = Spawn([&] {
      size_t echoed = 0;
      char buf[kChunk];
      while (echoed < kTotal) {
        ssize_t n = net_read_deadline(fds[1], buf, sizeof(buf), 50 * kMs);
        if (n < 0) {
          if (thread_errno() == ETIME) {
            continue;
          }
          server_errors.fetch_add(1);
          return;
        }
        size_t off = 0;
        while (off < static_cast<size_t>(n)) {
          ssize_t w =
              net_write_deadline(fds[1], buf + off, n - off, 50 * kMs);
          if (w < 0) {
            if (thread_errno() == ETIME) {
              continue;
            }
            server_errors.fetch_add(1);
            return;
          }
          off += static_cast<size_t>(w);
        }
        echoed += static_cast<size_t>(n);
      }
    });
    size_t sent_total = 0;
    bool ok = true;
    for (int c = 0; c < kChunks && ok; ++c) {
      char out[kChunk], in[kChunk];
      for (size_t i = 0; i < kChunk; ++i) {
        out[i] = static_cast<char>((sent_total + i) & 0xff);
      }
      size_t off = 0;
      while (off < kChunk) {
        ssize_t w = net_write_deadline(fds[0], out + off, kChunk - off, 50 * kMs);
        if (w < 0) {
          if (thread_errno() == ETIME) {
            continue;
          }
          ok = false;
          break;
        }
        off += static_cast<size_t>(w);
      }
      size_t got = 0;
      while (ok && got < kChunk) {
        ssize_t n = net_read_deadline(fds[0], in + got, kChunk - got, 50 * kMs);
        if (n < 0) {
          if (thread_errno() == ETIME) {
            continue;
          }
          ok = false;
          break;
        }
        got += static_cast<size_t>(n);
      }
      if (ok) {
        EXPECT_EQ(memcmp(out, in, kChunk), 0) << "chunk " << c;
        sent_total += kChunk;
      }
    }
    EXPECT_TRUE(ok);
    EXPECT_EQ(sent_total, kTotal);
    EXPECT_TRUE(Join(server));
    EXPECT_EQ(server_errors.load(), 0);
    net_unregister(fds[0]);
    net_unregister(fds[1]);
    close(fds[0]);
    close(fds[1]);
  });
}

TEST(ShakedownSweep, NetDeadlineExpiresDuringFaultRetries) {
  // The deadline must still be honored while injected EAGAIN/spurious-ready
  // faults bounce the call around its retry loop (Deadline::Remaining restarts
  // the wait with the leftover budget each time).
  RunSweep("shakedown", "net-deadline", 0.1,
           kSchedOps | inject::kOpFault, [](SplitMix64&) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(net_register(fds[0]), 0);
    char buf[16];
    int64_t start = MonotonicNowNs();
    EXPECT_EQ(net_read_deadline(fds[0], buf, sizeof(buf), 5 * kMs), -1);
    EXPECT_EQ(thread_errno(), ETIME);
    int64_t waited = MonotonicNowNs() - start;
    EXPECT_GE(waited, 4 * kMs);
    EXPECT_LE(waited, 2000 * kMs);  // sanity: retries cannot extend it forever
    // Late data still gets through the same retry loop.
    ASSERT_EQ(write(fds[1], "abcd", 4), 4);
    size_t got = 0;
    while (got < 4) {
      ssize_t n = net_read_deadline(fds[0], buf + got, 4 - got, 50 * kMs);
      if (n < 0 && thread_errno() == ETIME) {
        continue;
      }
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    EXPECT_EQ(memcmp(buf, "abcd", 4), 0);
    net_unregister(fds[0]);
    close(fds[0]);
    close(fds[1]);
  });
}

TEST(ShakedownSweep, SemaTimedRaceAtDeadline) {
  // sema_v aimed exactly at a waiter's deadline: whoever wins, the credit must
  // be conserved — a timeout that raced the hand-off may not eat it, and a
  // hand-off that raced the timeout may not double-deliver.
  RunSweep("shakedown", "sema-deadline", 0.5,
           inject::kOpYield | inject::kOpDelay, [](SplitMix64& rng) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      sema_t s;
      sema_init(&s, 0, 0, nullptr);
      std::atomic<int> rc{-1};
      thread_id_t a = Spawn([&] { rc.store(sema_p_timed(&s, 3 * kMs)); });
      // Land the V in a ±600us window around the 3ms deadline.
      thread_sleep_ns((3 * kMs - 600 * kUs) +
                      static_cast<int64_t>(rng.NextBounded(1200)) * kUs);
      sema_v(&s);
      EXPECT_TRUE(Join(a));
      int drained = 0;
      while (sema_tryp(&s)) {
        ++drained;
      }
      EXPECT_EQ(rc.load() + drained, 1)
          << "credit lost or duplicated at the timeout/hand-off race";
    }
  });
}

TEST(ShakedownSweep, CvSignalAtDeadline) {
  // cv_signal aimed at the waiter's deadline: a return of 0 (signaled) must
  // imply the predicate write that preceded the signal is visible.
  RunSweep("shakedown", "cv-deadline", 0.5,
           inject::kOpYield | inject::kOpDelay, [](SplitMix64& rng) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      mutex_t m;
      condvar_t cv;
      mutex_init(&m, 0, nullptr);
      cv_init(&cv, 0, nullptr);
      bool flag = false;  // guarded by m
      std::atomic<int> rc{-1};
      std::atomic<bool> saw{false};
      thread_id_t a = Spawn([&] {
        mutex_enter(&m);
        int r = flag ? 0 : cv_timedwait(&cv, &m, 3 * kMs);
        saw.store(flag);
        rc.store(r);
        mutex_exit(&m);
      });
      thread_sleep_ns((3 * kMs - 600 * kUs) +
                      static_cast<int64_t>(rng.NextBounded(1200)) * kUs);
      mutex_enter(&m);
      flag = true;
      cv_signal(&cv);
      mutex_exit(&m);
      EXPECT_TRUE(Join(a));
      EXPECT_TRUE(rc.load() == 0 || rc.load() == ETIME);
      if (rc.load() == 0) {
        EXPECT_TRUE(saw.load()) << "woken by signal but predicate not visible";
      }
    }
  });
}

TEST(ShakedownSweep, StealChurnLosesNothing) {
  // Steal-bias diverts wakes off their affine shard so the box/steal/overflow
  // machinery churns; every child must still run exactly once.
  RunSweep("shakedown", "steal-churn", 0.3, kSchedOps, [](SplitMix64&) {
    constexpr int kKids = 32;
    std::atomic<int> runs[kKids];
    for (auto& r : runs) {
      r.store(0);
    }
    sema_t done;
    sema_init(&done, 0, 0, nullptr);
    std::atomic<int> finished{0};
    thread_id_t producer = Spawn([&] {
      for (int i = 0; i < kKids; ++i) {
        Spawn(
            [&, i] {
              runs[i].fetch_add(1);
              if (finished.fetch_add(1) + 1 == kKids) {
                sema_v(&done);
              }
            },
            /*flags=*/0);
      }
    });
    EXPECT_TRUE(Join(producer));
    sema_p(&done);
    for (int i = 0; i < kKids; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "child " << i;
    }
  });
}

TEST(ShakedownSweep, StopContinueRunsVictimOnce) {
  // Harassers stop and continue one yielding victim. Two continues that both
  // enqueued the stopped victim once ran it on two LWPs at the same time; the
  // victim must finish its loop exactly once, with every iteration counted.
  RunSweep("shakedown", "stop-continue", 0.15, kSchedOps, [](SplitMix64& rng) {
    constexpr int kHarassers = 3;
    const int iters = 200 + static_cast<int>(rng.NextBounded(200));
    std::atomic<int> progress{0};
    std::atomic<int> finished{0};
    std::atomic<bool> done{false};
    thread_id_t victim = Spawn([&] {
      for (int i = 0; i < iters; ++i) {
        progress.fetch_add(1);
        thread_yield();
      }
      finished.fetch_add(1);
      done.store(true);
    });
    std::vector<thread_id_t> harassers;
    for (int h = 0; h < kHarassers; ++h) {
      const uint64_t harasser_seed = rng.Next();
      harassers.push_back(Spawn([&, harasser_seed] {
        SplitMix64 hrng(harasser_seed);
        while (!done.load()) {
          thread_stop(victim);
          for (uint64_t spin = hrng.NextBounded(8); spin > 0; --spin) {
            thread_yield();
          }
          thread_continue(victim);
          for (uint64_t spin = hrng.NextBounded(8); spin > 0; --spin) {
            thread_yield();
          }
        }
      }));
    }
    for (thread_id_t id : harassers) {
      EXPECT_TRUE(Join(id));
    }
    thread_continue(victim);
    EXPECT_TRUE(Join(victim));
    EXPECT_EQ(finished.load(), 1);
    EXPECT_EQ(progress.load(), iters);
  });
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  // Several LWPs even on small machines: cross-shard traffic is the point.
  config.initial_pool_lwps = 4;
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
