// Shared helpers for the sunmt test suite.

#ifndef SUNMT_TESTS_TEST_UTIL_H_
#define SUNMT_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/thread.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

// SUNMT_TEST_TSAN is 1 in a ThreadSanitizer build (fork1 tests skip there: a
// TSan child of a multi-threaded parent may not start threads).
// __SANITIZE_THREAD__ must be tested first: the sanitizer interface headers
// (pulled in via src/arch/context.h) define a __has_feature(x)=0 fallback for
// GCC, so the feature check alone would deny TSan on the compiler that has it.
#if defined(__SANITIZE_THREAD__)
#define SUNMT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUNMT_TEST_TSAN 1
#endif
#endif
#ifndef SUNMT_TEST_TSAN
#define SUNMT_TEST_TSAN 0
#endif

namespace sunmt_test {

// Adapts std::function to the C-style thread entry. The closure is heap-owned
// and deleted after it runs (tests are not the no-malloc hot path).
struct Closure {
  std::function<void()> fn;
};

inline void RunClosure(void* arg) {
  auto* closure = static_cast<Closure*>(arg);
  closure->fn();
  delete closure;
}

// Spawns a thread running `fn`. Defaults to THREAD_WAIT so Join() works.
inline sunmt::thread_id_t Spawn(std::function<void()> fn, int flags = sunmt::THREAD_WAIT) {
  return sunmt::thread_create(nullptr, 0, &RunClosure, new Closure{std::move(fn)}, flags);
}

// Waits for `id` to exit; returns true if the join succeeded.
inline bool Join(sunmt::thread_id_t id) { return sunmt::thread_wait(id) == id; }

// Polls `pred` every 100 us until it holds or `timeout_ns` passes; returns its
// last value. For waiting on another thread's state instead of counting yields.
template <typename Pred>
bool WaitUntil(Pred pred, int64_t timeout_ns) {
  int64_t deadline = sunmt::MonotonicNowNs() + timeout_ns;
  while (!pred()) {
    if (sunmt::MonotonicNowNs() >= deadline) {
      return pred();
    }
    usleep(100);
  }
  return true;
}

// Waits until thread `id` shows `state` ("BLOCKED", "RUNNABLE", ...) in the
// introspection snapshot: e.g. the peer has really blocked, not merely had N
// yields' worth of time to get there.
inline bool WaitForState(sunmt::thread_id_t id, const char* state, int64_t timeout_ns) {
  return WaitUntil(
      [id, state] {
        std::vector<sunmt::ThreadSnapshot> threads;
        sunmt::SnapshotThreads(&threads);
        for (const sunmt::ThreadSnapshot& t : threads) {
          if (t.id == id) {
            return strcmp(t.state, state) == 0;
          }
        }
        return false;
      },
      timeout_ns);
}

// Waits for child `pid` and returns its exit status, or -1 if it did not exit
// normally. A child still running after `timeout_ns` (well above the slowest
// fork test's child) is SIGKILLed and fails the test, naming the pid, instead
// of hanging the binary until the ctest timeout.
inline int WaitForChild(pid_t pid, int64_t timeout_ns = 60'000'000'000) {
  int64_t deadline = sunmt::MonotonicNowNs() + timeout_ns;
  int status = 0;
  pid_t r;
  while ((r = waitpid(pid, &status, WNOHANG)) == 0) {
    if (sunmt::MonotonicNowNs() >= deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      ADD_FAILURE() << "child " << pid << " still running after "
                    << timeout_ns / 1000000 << " ms; killed";
      return -1;
    }
    usleep(1000);
  }
  EXPECT_EQ(r, pid) << "waitpid(" << pid << "): " << strerror(errno);
  return r == pid && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- Seeded injection sweeps ------------------------------------------------

// Seeds per sweep: 64, or SUNMT_SHAKEDOWN_SEEDS when set to a positive count.
inline int SweepSeeds() {
  static const int n = [] {
    const char* env = getenv("SUNMT_SHAKEDOWN_SEEDS");
    int v = env != nullptr ? atoi(env) : 0;
    return v > 0 ? v : 64;
  }();
  return n;
}

// An ops mask as SUNMT_INJECT spells it, e.g. "yield|delay|steal".
inline std::string OpsString(uint32_t ops) {
  std::string s;
  auto add = [&](const char* name) {
    if (!s.empty()) s += "|";
    s += name;
  };
  if (ops & sunmt::inject::kOpYield) add("yield");
  if (ops & sunmt::inject::kOpDelay) add("delay");
  if (ops & sunmt::inject::kOpSteal) add("steal");
  if (ops & sunmt::inject::kOpFault) add("fault");
  if (ops & sunmt::inject::kOpShort) add("short");
  return s;
}

// Runs `body` once per seed under inject::Configure(seed, rate, ops). The body
// gets a seed-derived RNG for its own workload jitter, so each seed explores
// both a distinct perturbation stream and a distinct workload timing. A
// failure carries a SCOPED_TRACE naming the body and seed, and the sweep stops
// at the first failing seed after printing, under `tag`, the SUNMT_INJECT
// spec that replays it.
inline void RunSweep(const char* tag, const char* name, double rate, uint32_t ops,
                     const std::function<void(sunmt::SplitMix64&)>& body) {
  for (int seed = 1; seed <= SweepSeeds(); ++seed) {
    SCOPED_TRACE(std::string("[") + tag + "] body=" + name +
                 " seed=" + std::to_string(seed));
    sunmt::inject::Configure(static_cast<uint64_t>(seed), rate, ops);
    sunmt::SplitMix64 rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ull);
    body(rng);
    sunmt::inject::Disable();
    if (::testing::Test::HasFailure()) {
      fprintf(stderr,
              "[%s] FAILED body=%s seed=%d -- replay with "
              "SUNMT_INJECT=seed=%d,rate=%g,ops=%s\n",
              tag, name, seed, seed, rate, OpsString(ops).c_str());
      return;
    }
  }
}

}  // namespace sunmt_test

#endif  // SUNMT_TESTS_TEST_UTIL_H_
