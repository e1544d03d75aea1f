#include "src/rlimit/rlimit.h"

#include <atomic>

#include "src/core/runtime.h"
#include "src/lwp/lwp.h"
#include "src/lwp/onproc.h"
#include "src/signal/signal.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

struct SumState {
  ProcessUsage usage;
  int64_t busiest_ns = -1;
  uint64_t busiest_thread = 0;  // running on the busiest LWP, 0 if none
};

void AccumulateOne(Lwp* lwp, void* cookie) {
  auto* sum = static_cast<SumState*>(cookie);
  LwpUsage usage = lwp->Usage();
  sum->usage.user_ns += usage.user_ns;
  sum->usage.system_wait_ns += usage.system_wait_ns;
  sum->usage.kernel_calls += usage.kernel_calls;
  sum->usage.lwps += 1;
  if (usage.user_ns > sum->busiest_ns) {
    sum->busiest_ns = usage.user_ns;
    // Read under the registry lock, while the LWP cannot retire.
    sum->busiest_thread = onproc::Running(lwp->onproc_slot());
  }
}

SumState Sum() {
  SumState sum;
  LwpRegistry::ForEach(&AccumulateOne, &sum);
  return sum;
}

struct LimitState {
  std::atomic<int64_t> soft_ns{0};
  std::atomic<int> sig{SIG_XCPU};
  std::atomic<bool> fired{false};
  SpinLock lock;  // serializes setters
};

LimitState& Limit() {
  static LimitState state;
  return state;
}

}  // namespace

bool CpuLimitArmed() {
  LimitState& limit = Limit();
  return limit.soft_ns.load(std::memory_order_acquire) > 0 &&
         !limit.fired.load(std::memory_order_acquire);
}

void CheckCpuLimit() {
  LimitState& limit = Limit();
  int64_t soft = limit.soft_ns.load(std::memory_order_acquire);
  if (soft <= 0 || limit.fired.load(std::memory_order_acquire)) {
    return;
  }
  SumState sum = Sum();
  if (sum.usage.user_ns <= soft ||
      limit.fired.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // "The LWP that exceeded the limit is sent the appropriate signal": target
  // the thread the busiest LWP was carrying; if it had none (or is gone by
  // now), fall back to a process-directed interrupt.
  int sig = limit.sig.load(std::memory_order_relaxed);
  if (sum.busiest_thread == 0 || thread_kill(sum.busiest_thread, sig) != 0) {
    signal_raise_process(sig);
  }
}

// The limit itself is plain state the child inherits; the child's rebuilt
// runtime checks it on its own clock.
void RlimitResetAfterFork() { Limit().lock.Reset(); }

ProcessUsage process_rusage() { return Sum().usage; }

void process_set_cpu_limit(int64_t soft_ns, int sig) {
  LimitState& limit = Limit();
  {
    SpinLockGuard guard(limit.lock);
    limit.sig.store(sig > 0 ? sig : SIG_XCPU, std::memory_order_relaxed);
    limit.fired.store(false, std::memory_order_release);
    limit.soft_ns.store(soft_ns, std::memory_order_release);
  }
  if (soft_ns > 0) {
    Runtime::Get();  // its service loop checks the limit on each clock tick
  }
}

bool process_cpu_limit_exceeded() {
  return Limit().fired.load(std::memory_order_acquire);
}

}  // namespace sunmt
