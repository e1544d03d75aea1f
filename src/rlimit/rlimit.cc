#include "src/rlimit/rlimit.h"

#include <time.h>

#include <atomic>
#include <thread>

#include "src/core/runtime.h"
#include "src/core/tcb.h"
#include "src/lwp/lwp.h"
#include "src/signal/signal.h"

namespace sunmt {
namespace {

struct SumState {
  ProcessUsage usage;
  Lwp* busiest = nullptr;
  int64_t busiest_ns = -1;
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
    sum->busiest = lwp;
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
  std::atomic<bool> monitor_started{false};
};

LimitState& Limit() {
  static LimitState state;
  return state;
}

void MonitorMain() {
  LimitState& limit = Limit();
  for (;;) {
    struct timespec req = {0, 5 * 1000 * 1000};
    nanosleep(&req, nullptr);
    int64_t soft = limit.soft_ns.load(std::memory_order_acquire);
    if (soft <= 0 || limit.fired.load(std::memory_order_acquire)) {
      continue;
    }
    SumState sum = Sum();
    if (sum.usage.user_ns <= soft) {
      continue;
    }
    if (limit.fired.exchange(true, std::memory_order_acq_rel)) {
      continue;
    }
    // "The LWP that exceeded the limit is sent the appropriate signal": target
    // the thread currently carried by the busiest LWP; if it has none (or is
    // gone by the time we look), fall back to a process-directed interrupt.
    int sig = limit.sig.load(std::memory_order_relaxed);
    bool delivered = false;
    if (sum.busiest != nullptr && Runtime::IsInitialized()) {
      // Find the thread running on the busiest LWP under the registry lock
      // (keeps the TCB alive while we read its id).
      thread_id_t victim = 0;
      Runtime::Get().ForEachThread([&](Tcb* t) {
        if (t->lwp == sum.busiest &&
            t->state.load(std::memory_order_acquire) == ThreadState::kRunning) {
          victim = t->id;
        }
      });
      if (victim != 0 && thread_kill(victim, sig) == 0) {
        delivered = true;
      }
    }
    if (!delivered) {
      signal_raise_process(sig);
    }
  }
}

// fork1() child repair: the monitor thread did not survive the fork, but the
// armed limit did.
void RlimitForkChildRepair() { std::thread(&MonitorMain).detach(); }

}  // namespace

ProcessUsage process_rusage() { return Sum().usage; }

void process_set_cpu_limit(int64_t soft_ns, int sig) {
  LimitState& limit = Limit();
  limit.sig.store(sig > 0 ? sig : SIG_XCPU, std::memory_order_relaxed);
  limit.fired.store(false, std::memory_order_release);
  limit.soft_ns.store(soft_ns, std::memory_order_release);
  if (soft_ns > 0 && !limit.monitor_started.exchange(true, std::memory_order_acq_rel)) {
    Runtime::RegisterForkChildHandler(&RlimitForkChildRepair);
    std::thread(&MonitorMain).detach();
  }
}

bool process_cpu_limit_exceeded() {
  return Limit().fired.load(std::memory_order_acquire);
}

}  // namespace sunmt
