// Process resource usage and limits.
//
// The paper: "The resource limits set limits on the resource usage of the entire
// process (i.e. the sum of the resource usage of all the LWPs in the process).
// When a soft resource limit has been exceeded, the LWP that exceeded the limit
// is sent the appropriate signal. The sum of the resource usage (including CPU
// usage) for all LWPs in the process is available via getrusage()."
//
// process_rusage() is that getrusage() analogue; process_set_cpu_limit() arms a
// soft CPU limit whose breach delivers SIG_XCPU to the thread running on the
// busiest LWP (falling back to a process-directed interrupt).

#ifndef SUNMT_SRC_RLIMIT_RLIMIT_H_
#define SUNMT_SRC_RLIMIT_RLIMIT_H_

#include <cstdint>

namespace sunmt {

struct ProcessUsage {
  int64_t user_ns = 0;         // summed CPU of every LWP
  int64_t system_wait_ns = 0;  // summed wall time in kernel waits
  uint64_t kernel_calls = 0;   // summed kernel-call brackets
  int lwps = 0;                // live LWPs contributing to the sums
};

// Sums usage over all live LWPs (bound, pool, and adopted alike).
ProcessUsage process_rusage();

// Arms a soft CPU limit: once the process's summed LWP user time exceeds
// `soft_ns`, `sig` (default SIG_XCPU) is delivered once, to the thread on the
// LWP that consumed the most CPU. soft_ns == 0 disarms. The check rides the
// LWP clock tick (5 ms) of the runtime's service loop, which keeps the clock
// running while a limit is armed, so detection latency is about one tick. A
// nonzero limit builds the runtime, as a timer arm does. The limit is plain
// state: a fork1() child inherits it, and the child's rebuilt runtime checks
// it against the child's own LWPs.
void process_set_cpu_limit(int64_t soft_ns, int sig);

// True once an armed limit has fired (resets when a new limit is armed).
bool process_cpu_limit_exceeded();

// ---- Package-internal: the service loop's CPU-limit duty ---------------------
// True while a limit is set and has not fired: the loop keeps the clock on.
bool CpuLimitArmed();
// Called after each LWP clock tick; delivers the signal once the limit is
// exceeded.
void CheckCpuLimit();
// fork1() child repair (Runtime::ResetAfterFork): resets the setter's lock.
void RlimitResetAfterFork();

}  // namespace sunmt

#endif  // SUNMT_SRC_RLIMIT_RLIMIT_H_
