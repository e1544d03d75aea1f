// Shared helpers for the sunmt test suite.

#ifndef SUNMT_TESTS_TEST_UTIL_H_
#define SUNMT_TESTS_TEST_UTIL_H_

#include <string.h>
#include <unistd.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/core/thread.h"
#include "src/introspect/introspect.h"
#include "src/util/clock.h"

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

}  // namespace sunmt_test

#endif  // SUNMT_TESTS_TEST_UTIL_H_
