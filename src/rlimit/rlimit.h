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
// LWP that consumed the most CPU. soft_ns == 0 disarms. The check is a 5 ms
// periodic timer callback (src/timer) on the runtime's service thread, armed
// only while a limit is set, so detection latency is about one period.
void process_set_cpu_limit(int64_t soft_ns, int sig);

// True once an armed limit has fired (resets when a new limit is armed).
bool process_cpu_limit_exceeded();

}  // namespace sunmt

#endif  // SUNMT_SRC_RLIMIT_RLIMIT_H_
