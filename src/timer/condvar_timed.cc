// cv_timedwait(): bounded condition waits, built from a per-thread timer — the
// paper's recipe for richer timing facilities ("library routines may implement
// multiple per-thread timers using the per-address space timer").
//
// Local variant: the waiter enqueues on the condvar as usual and arms a one-shot
// callback timer (timed_wait.h). Whichever of cv_signal and the timer dequeues
// the waiter first wins; the loser finds the thread gone from the queue and
// does nothing. Shared variant: the futex wait itself takes the timeout
// (address-free, may wake spuriously — the mandated re-test absorbs it).

#include <errno.h>

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/lwp/kernel_wait.h"
#include "src/sync/sync.h"
#include "src/sync/waitq.h"
#include "src/timer/timed_wait.h"
#include "src/timer/timer.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

// One ctx per timed wait; steady state must not touch the heap (the paper's
// no-malloc-on-hot-paths rule), so the blocks come from a per-LWP magazine.
struct CvCtxTag {
  static constexpr const char* kName = "cv.timeout_ctx";
};
using CvTimedWait = TimedWait<CvCtxTag, &sched::Wake>;

}  // namespace

int cv_timedwait(condvar_t* cvp, mutex_t* mutexp, int64_t timeout_ns) {
  if (timeout_ns < 0) {
    timeout_ns = 0;
  }
  if ((cvp->type & THREAD_SYNC_SHARED) != 0) {
    uint32_t seq = cvp->seq.load(std::memory_order_acquire);
    mutex_exit(mutexp);
    int rc;
    {
      KernelWaitScope wait(/*indefinite=*/true);
      rc = FutexWait(&cvp->seq, seq, /*shared=*/true, timeout_ns);
    }
    mutex_enter(mutexp);
    return rc == -ETIMEDOUT ? ETIME : 0;
  }

  Tcb* self = sched::CurrentTcbOrAdopt();
  cvp->qlock.Lock();
  WaitqPush(&cvp->wait_head, &cvp->wait_tail, self);  // advances block_generation
  CvTimedWait timeout;
  timeout.Arm(&cvp->qlock, &cvp->wait_head, &cvp->wait_tail, self, timeout_ns);
  mutex_exit(mutexp);
  if (lockdep::Enabled()) {
    // Condvars have no owner, so this records "waiting" for introspection
    // without ever fabricating a wait-for cycle out of a bounded wait.
    lockdep::OnBlock(&cvp->lockdep_dbg, lockdep::kCondvar, 0);
  }
  sched::Block(&cvp->qlock);  // releases qlock after the context save
  if (lockdep::Enabled()) {
    lockdep::OnUnblock();
  }
  bool timed_out = timeout.Finish();
  mutex_enter(mutexp);
  return timed_out ? ETIME : 0;
}

}  // namespace sunmt
