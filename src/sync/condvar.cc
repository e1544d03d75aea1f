// Condition variables.
//
// "cv_wait() blocks until the condition is signaled. It releases the associated
// mutex before blocking, and reacquires it before returning. ... the condition
// that caused the wait must be re-tested."
//
// Local variant: the waiter enqueues under the condvar's qlock *before* dropping
// the mutex, so a signal between unlock and block cannot be lost. Shared variant:
// futex sequence-word protocol (address-free; may wake spuriously — the mandated
// re-test loop absorbs that).
//
// cv_wait() and cv_timedwait() are one wait. The bound is a per-thread timer —
// the paper's recipe for richer timing facilities ("library routines may
// implement multiple per-thread timers using the per-address space timer"):
// whichever of cv_signal and the timer dequeues the waiter first wins
// (timed_wait.h). The shared variant hands the bound to the futex wait.

#include "src/sync/sync.h"

#include <errno.h>

#include <climits>

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/sync/timed_wait.h"
#include "src/sync/waitq.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

bool IsShared(const condvar_t* cvp) { return (cvp->type & THREAD_SYNC_SHARED) != 0; }

uint32_t LdFlags(const condvar_t* cvp) {
  return IsShared(cvp) ? static_cast<uint32_t>(lockdep::kFlagShared) : 0u;  // condvars have no owner
}

// The one wait: returns 0 if signaled, ETIME once `timeout_ns` (< 0: never)
// elapsed. The mutex is reacquired before returning in either case.
int CvWait(condvar_t* cvp, mutex_t* mutexp, int64_t timeout_ns) {
  if (IsShared(cvp)) {
    uint32_t seq = cvp->seq.load(std::memory_order_acquire);
    mutex_exit(mutexp);
    int64_t t0 = SyncWaitStartNs();
    int rc = FutexBlock(&cvp->seq, seq, &cvp->lockdep_dbg, lockdep::kCondvar,
                        LdFlags(cvp), timeout_ns);
    Tcb* cur = sched::CurrentTcb();
    SyncWaitEndNs(LatencyStat::kCondvarWaitShared, TraceEvent::kCvWait,
                  cur != nullptr ? static_cast<uint64_t>(cur->id) : 0, t0);
    mutex_enter(mutexp);
    return rc == -ETIMEDOUT ? ETIME : 0;
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  cvp->qlock.Lock();
  WaitqPush(&cvp->wait_head, &cvp->wait_tail, self);  // advances block_generation
  TimedWait<&sched::Wake> timeout;
  timeout.Arm(&cvp->qlock, &cvp->wait_head, &cvp->wait_tail, self, timeout_ns);
  mutex_exit(mutexp);
  // Condvars have no owner, so the waiting-on edge is for introspection and
  // never closes a wait-for cycle, bounded or not.
  WaitqBlock(&cvp->qlock, &cvp->lockdep_dbg, lockdep::kCondvar, LdFlags(cvp),
             LatencyStat::kCondvarWaitLocal, TraceEvent::kCvWait, self);
  bool timed_out = timeout.Finish();
  mutex_enter(mutexp);
  return timed_out ? ETIME : 0;
}

}  // namespace

void cv_init(condvar_t* cvp, int type, void* arg) {
  (void)arg;
  cvp->seq.store(0, std::memory_order_relaxed);
  cvp->type = static_cast<uint32_t>(type);
  cvp->wait_head = nullptr;
  cvp->wait_tail = nullptr;
  cvp->qlock.Reset();  // storage may carry a stale locked image (see sema_init)
  lockdep::OnInit(&cvp->lockdep_dbg, lockdep::kCondvar,
                  reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

void cv_wait(condvar_t* cvp, mutex_t* mutexp) { CvWait(cvp, mutexp, -1); }

int cv_timedwait(condvar_t* cvp, mutex_t* mutexp, int64_t timeout_ns) {
  return CvWait(cvp, mutexp, timeout_ns < 0 ? 0 : timeout_ns);
}

void cv_signal(condvar_t* cvp) {
  if (IsShared(cvp)) {
    cvp->seq.fetch_add(1, std::memory_order_release);
    FutexWake(&cvp->seq, 1, /*shared=*/true);
    return;
  }
  Tcb* waiter = nullptr;
  {
    SpinLockGuard guard(cvp->qlock);
    waiter = WaitqPop(&cvp->wait_head, &cvp->wait_tail);
  }
  if (waiter != nullptr) {
    sched::Wake(waiter);
  }
}

void cv_broadcast(condvar_t* cvp) {
  if (IsShared(cvp)) {
    cvp->seq.fetch_add(1, std::memory_order_release);
    FutexWake(&cvp->seq, INT_MAX, /*shared=*/true);
    return;
  }
  // Pop the whole chain under the lock, wake outside it ("causes all threads
  // blocking on the condition to re-contend for the mutex").
  Tcb* chain = nullptr;
  {
    SpinLockGuard guard(cvp->qlock);
    chain = cvp->wait_head;
    cvp->wait_head = nullptr;
    cvp->wait_tail = nullptr;
  }
  while (chain != nullptr) {
    Tcb* next = chain->wait_next;
    chain->wait_next = nullptr;
    sched::Wake(chain);
    chain = next;
  }
}

void cv_set_name(condvar_t* cvp, const char* name) {
  lockdep::SetName(&cvp->lockdep_dbg, lockdep::kCondvar, name);
}

}  // namespace sunmt
