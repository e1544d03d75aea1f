// Randomized stress: many threads doing a random mix of package operations
// while global invariants are checked. Deterministic seeds; any panic, hang,
// lost wakeup, or accounting drift fails the test.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/signal/signal.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/tls/thread_local.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

ThreadLocal<uint64_t> tls_stress_stamp;

struct StressWorld {
  mutex_t mutexes[4] = {};
  sema_t semas[2] = {};
  rwlock_t rwlocks[2] = {};
  condvar_t cv = {};
  mutex_t cv_mu = {};
  int cv_generation = 0;  // guarded by cv_mu

  std::atomic<long> mutex_counter{0};
  long mutex_shadow[4] = {};  // guarded by the matching mutex
  std::atomic<long> sema_tokens_in{0};
  std::atomic<long> sema_tokens_out{0};
  // Per rwlock: a reader of one lock may legally overlap a writer of the other.
  std::atomic<int> rw_writers[2] = {};
  std::atomic<int> rw_readers[2] = {};
  std::atomic<bool> violation{false};
};

StressWorld g_world;

void StressBody(uint64_t seed, int ops) {
  SplitMix64 rng(seed);
  StressWorld& w = g_world;
  tls_stress_stamp.Get() = seed;
  for (int i = 0; i < ops; ++i) {
    switch (rng.NextBounded(10)) {
      case 0:
      case 1: {  // mutex-protected increment (plain shadow catches races)
        int m = static_cast<int>(rng.NextBounded(4));
        mutex_enter(&w.mutexes[m]);
        ++w.mutex_shadow[m];
        w.mutex_counter.fetch_add(1, std::memory_order_relaxed);
        mutex_exit(&w.mutexes[m]);
        break;
      }
      case 2: {  // semaphore produce
        int s = static_cast<int>(rng.NextBounded(2));
        w.sema_tokens_in.fetch_add(1, std::memory_order_relaxed);
        sema_v(&w.semas[s]);
        break;
      }
      case 3: {  // semaphore consume (try: consuming blocked would skew counts)
        int s = static_cast<int>(rng.NextBounded(2));
        if (sema_tryp(&w.semas[s])) {
          w.sema_tokens_out.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case 4: {  // read-side critical section
        int r = static_cast<int>(rng.NextBounded(2));
        rw_enter(&w.rwlocks[r], RW_READER);
        w.rw_readers[r].fetch_add(1);
        if (w.rw_writers[r].load() != 0) {
          w.violation.store(true);
        }
        w.rw_readers[r].fetch_sub(1);
        rw_exit(&w.rwlocks[r]);
        break;
      }
      case 5: {  // write-side critical section
        int r = static_cast<int>(rng.NextBounded(2));
        rw_enter(&w.rwlocks[r], RW_WRITER);
        if (w.rw_writers[r].fetch_add(1) != 0) {
          w.violation.store(true);
        }
        w.rw_writers[r].fetch_sub(1);
        rw_exit(&w.rwlocks[r]);
        break;
      }
      case 6: {  // condvar pulse
        mutex_enter(&w.cv_mu);
        ++w.cv_generation;
        cv_broadcast(&w.cv);
        mutex_exit(&w.cv_mu);
        break;
      }
      case 7: {  // bounded condvar wait (timeout keeps the test finite)
        mutex_enter(&w.cv_mu);
        cv_timedwait(&w.cv, &w.cv_mu, 1 * 1000 * 1000);
        mutex_exit(&w.cv_mu);
        break;
      }
      case 8: {  // create + join a child thread
        thread_id_t child = Spawn([] { thread_yield(); });
        if (child == kInvalidThreadId || !Join(child)) {
          w.violation.store(true);
        }
        break;
      }
      default: {  // yield / sleep / TLS check
        if (tls_stress_stamp.Get() != seed) {
          w.violation.store(true);
        }
        if (rng.NextBounded(8) == 0) {
          thread_sleep_ns(100 * 1000);
        } else {
          thread_yield();
        }
        break;
      }
    }
  }
}

TEST(Stress, MixedOperationsKeepInvariants) {
  constexpr int kThreads = 12;
  constexpr int kOps = 1500;
  (void)thread_get_id();  // adopt the main thread before taking the baseline
  size_t base_threads = Runtime::Get().ThreadCount();

  std::vector<thread_id_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    uint64_t seed = 0xabcdef00u + t;
    // A mix of bound and unbound participants.
    int flags = THREAD_WAIT | (t % 4 == 0 ? THREAD_BIND_LWP : 0);
    ids.push_back(Spawn([seed] { StressBody(seed, kOps); }, flags));
    ASSERT_NE(ids.back(), kInvalidThreadId);
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }

  StressWorld& w = g_world;
  EXPECT_FALSE(w.violation.load());
  // Mutex invariant: the lock-protected shadows sum to the atomic counter.
  long shadow_sum = 0;
  for (long s : w.mutex_shadow) {
    shadow_sum += s;
  }
  EXPECT_EQ(shadow_sum, w.mutex_counter.load());
  // Semaphore conservation: remaining tokens = produced - consumed.
  long remaining = 0;
  while (sema_tryp(&w.semas[0])) {
    ++remaining;
  }
  while (sema_tryp(&w.semas[1])) {
    ++remaining;
  }
  EXPECT_EQ(remaining, w.sema_tokens_in.load() - w.sema_tokens_out.load());
  // No leaked threads: every child was joined, every worker reaped.
  for (int i = 0; i < 50 && Runtime::Get().ThreadCount() > base_threads; ++i) {
    thread_yield();
  }
  EXPECT_EQ(Runtime::Get().ThreadCount(), base_threads);
  // The world is still functional afterwards.
  thread_id_t check = Spawn([] {});
  EXPECT_TRUE(Join(check));
}

TEST(Stress, StopContinueStorm) {
  // One victim yielding in a loop; several harassers stop/continue it randomly.
  // The victim must make progress and terminate exactly once.
  static std::atomic<long> progress;
  static std::atomic<bool> done;
  progress.store(0);
  done.store(false);
  thread_id_t victim = Spawn([&] {
    for (int i = 0; i < 30000; ++i) {
      progress.fetch_add(1);
      thread_yield();
    }
    done.store(true);
  });
  std::vector<thread_id_t> harassers;
  for (int h = 0; h < 3; ++h) {
    harassers.push_back(Spawn([victim, h] {
      SplitMix64 rng(7000 + h);
      for (int i = 0; i < 200 && !done.load(); ++i) {
        thread_stop(victim);
        for (uint64_t spin = rng.NextBounded(50); spin > 0; --spin) {
          thread_yield();
        }
        thread_continue(victim);
        for (uint64_t spin = rng.NextBounded(50); spin > 0; --spin) {
          thread_yield();
        }
      }
      // Make sure the victim is running at the end of this harasser.
      thread_continue(victim);
    }));
  }
  for (thread_id_t id : harassers) {
    EXPECT_TRUE(Join(id));
  }
  thread_continue(victim);
  EXPECT_TRUE(Join(victim));
  EXPECT_TRUE(done.load());
  EXPECT_EQ(progress.load(), 30000);
}

TEST(Stress, SignalStorm) {
  // Many directed signals to yielding threads; every delivery is counted and
  // coalescing accounts for the rest (received <= sent, per the paper).
  static std::atomic<long> handled;
  handled.store(0);
  signal_handler_set(SIG_USR1, [](int) { handled.fetch_add(1); });
  static std::atomic<bool> stop;
  stop.store(false);
  std::vector<thread_id_t> targets;
  for (int t = 0; t < 4; ++t) {
    targets.push_back(Spawn([&] {
      while (!stop.load()) {
        thread_poll();
        thread_yield();
      }
    }));
  }
  uint64_t coalesced_before = signal_coalesced_count();
  constexpr long kSends = 4000;
  SplitMix64 rng(99);
  for (long i = 0; i < kSends; ++i) {
    thread_kill(targets[rng.NextBounded(targets.size())], SIG_USR1);
    if (i % 16 == 0) {
      thread_yield();
    }
  }
  // Let the targets drain every pending signal before they exit, so the
  // accounting below is exact.
  int64_t deadline = MonotonicNowNs() + 5 * 1000 * 1000 * 1000ll;
  while (handled.load() +
                 static_cast<long>(signal_coalesced_count() - coalesced_before) <
             kSends &&
         MonotonicNowNs() < deadline) {
    thread_yield();
  }
  stop.store(true);
  for (thread_id_t id : targets) {
    EXPECT_TRUE(Join(id));
  }
  long coalesced = static_cast<long>(signal_coalesced_count() - coalesced_before);
  EXPECT_LE(handled.load(), kSends);
  EXPECT_GE(handled.load() + coalesced, kSends);  // every send accounted for
  EXPECT_GT(handled.load(), 0);
  signal_handler_set(SIG_USR1, SIG_DEFAULT);
}

}  // namespace
}  // namespace sunmt
