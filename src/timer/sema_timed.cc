// sema_p_timed(): bounded semaphore waits, same construction as cv_timedwait —
// a per-thread timer races the normal hand-off (timed_wait.h); whoever
// dequeues the waiter first wins.

#include <errno.h>

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/lwp/kernel_wait.h"
#include "src/sync/sync.h"
#include "src/sync/waitq.h"
#include "src/timer/timed_wait.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

// One ctx per timed wait; steady state must not touch the heap (the paper's
// no-malloc-on-hot-paths rule), so the blocks come from a per-LWP magazine.
struct SemaCtxTag {
  static constexpr const char* kName = "sema.timeout_ctx";
};
using SemaTimedWait = TimedWait<SemaCtxTag, &sched::Wake>;

int SharedPTimed(sema_t* sp, int64_t timeout_ns) {
  int64_t deadline = MonotonicNowNs() + timeout_ns;
  for (;;) {
    uint32_t cur = sp->count.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (sp->count.compare_exchange_weak(cur, cur - 1, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        return 1;
      }
    }
    int64_t remaining = deadline - MonotonicNowNs();
    if (remaining <= 0) {
      return 0;
    }
    KernelWaitScope wait(/*indefinite=*/true);
    FutexWait(&sp->count, 0, /*shared=*/true, remaining);
  }
}

}  // namespace

int sema_p_timed(sema_t* sp, int64_t timeout_ns) {
  if (timeout_ns < 0) {
    timeout_ns = 0;
  }
  // Lockdep treats a timed P like a trylock: the wait is bounded, so it adds
  // no order edges and never joins the wait-for graph — but a success still
  // enters the held stack and records ownership.
  const uintptr_t caller =
      reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  const uint32_t ld_flags = lockdep::kFlagTry;
  if ((sp->type & THREAD_SYNC_SHARED) != 0) {
    int ok = SharedPTimed(sp, timeout_ns);
    if (ok != 0 && lockdep::Enabled()) {
      lockdep::OnAcquired(&sp->lockdep_dbg, lockdep::kSema, caller, ld_flags);
    }
    return ok;
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  sp->qlock.Lock();
  uint32_t cur = sp->count.load(std::memory_order_relaxed);
  if (cur > 0) {
    sp->count.store(cur - 1, std::memory_order_relaxed);
    sp->qlock.Unlock();
    if (lockdep::Enabled()) {
      lockdep::OnAcquired(&sp->lockdep_dbg, lockdep::kSema, caller, ld_flags);
    }
    return 1;
  }
  WaitqPush(&sp->wait_head, &sp->wait_tail, self);  // advances block_generation
  SemaTimedWait timeout;
  timeout.Arm(&sp->qlock, &sp->wait_head, &sp->wait_tail, self, timeout_ns);
  sched::Block(&sp->qlock);  // releases qlock after the context save
  bool timed_out = timeout.Finish();
  // Timed out: no credit consumed. Woken: sema_v handed the credit directly.
  if (!timed_out && lockdep::Enabled()) {
    lockdep::OnAcquired(&sp->lockdep_dbg, lockdep::kSema, caller, ld_flags);
  }
  return timed_out ? 0 : 1;
}

}  // namespace sunmt
