// RAII bracket for operations that block the current LWP in the (host) kernel.
//
// "When a thread executes a kernel call, it remains bound to the same lightweight
// process for the duration of the kernel call." Process-shared sync waits and the
// blocking I/O wrappers use this scope; indefinite waits make the LWP eligible for
// the SIGWAITING condition.
//
// The scope also feeds observability: when stats or tracing are on, the wait's
// wall duration lands in the kernel_wait histogram and the trace ring (subject =
// LWP id: the LWP is what waits in the kernel). trace.h and stats.h include
// only standard headers, so this header pulls nothing of src/core beyond them.

#ifndef SUNMT_SRC_LWP_KERNEL_WAIT_H_
#define SUNMT_SRC_LWP_KERNEL_WAIT_H_

#include "src/core/trace.h"
#include "src/inject/inject.h"
#include "src/lwp/lwp.h"
#include "src/stats/stats.h"
#include "src/util/clock.h"

namespace sunmt {

class KernelWaitScope {
 public:
  explicit KernelWaitScope(bool indefinite) : lwp_(Lwp::Current()) {
    inject::Perturb(inject::kKernelWait);
    if (lwp_ != nullptr) {
      lwp_->EnterKernelWait(indefinite);
      if (Stats::Enabled() || Trace::IsEnabled()) {
        start_ns_ = MonotonicNowNs();
      }
    }
  }
  ~KernelWaitScope() {
    if (lwp_ != nullptr) {
      lwp_->ExitKernelWait();
      if (start_ns_ != 0) {
        int64_t waited = MonotonicNowNs() - start_ns_;
        if (waited < 0) {
          waited = 0;
        }
        Stats::RecordNs(LatencyStat::kKernelWait, waited);
        Trace::Record(TraceEvent::kKernelWait,
                      static_cast<uint64_t>(lwp_->id()),
                      static_cast<uint64_t>(waited));
      }
    }
  }
  KernelWaitScope(const KernelWaitScope&) = delete;
  KernelWaitScope& operator=(const KernelWaitScope&) = delete;

 private:
  Lwp* lwp_;
  int64_t start_ns_ = 0;
};

}  // namespace sunmt

#endif  // SUNMT_SRC_LWP_KERNEL_WAIT_H_
