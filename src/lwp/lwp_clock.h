// The clock-tick engine behind per-LWP virtual interval timers and profiling.
//
// In SunOS the kernel's clock interrupt charges each LWP's user time, decrements
// its virtual timers, and bumps its profiling buffer. Here a dedicated kernel
// thread plays the clock interrupt: every tick it samples each registered LWP's
// CPU clock and calls Lwp::OnClockTick with the delta.

#ifndef SUNMT_SRC_LWP_LWP_CLOCK_H_
#define SUNMT_SRC_LWP_LWP_CLOCK_H_

#include <cstdint>

namespace sunmt {

class LwpClock {
 public:
  // Tick period. SunOS used a 10ms clock; we tick at 5ms for snappier tests.
  static constexpr int64_t kTickNs = 5 * 1000 * 1000;

  // Starts the clock thread if not already running. Idempotent, thread-safe.
  // The thread runs for the life of the process.
  static void EnsureRunning();

  // fork1() child repair: the parent's clock thread did not survive the fork.
  // Starts a new one if the parent ran one (the child inherits its LWP timers
  // and timeslice).
  static void RestartAfterFork();

  // True once the clock thread has been started.
  static bool Running();

  // Total ticks delivered so far (for tests).
  static uint64_t TickCount();
};

}  // namespace sunmt

#endif  // SUNMT_SRC_LWP_LWP_CLOCK_H_
