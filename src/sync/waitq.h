// Internal helpers for the wait queues embedded in synchronization variables,
// and the one wait bracket every sync slow path blocks through.
//
// The queues are singly-linked Tcb chains through Tcb::wait_next so that an
// all-zero sync variable is a valid empty queue (the zero-initialization
// requirement). All queue operations assume the variable's qlock is held.

#ifndef SUNMT_SRC_SYNC_WAITQ_H_
#define SUNMT_SRC_SYNC_WAITQ_H_

#include <atomic>
#include <cstdint>

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/core/trace.h"
#include "src/debug/lockdep.h"
#include "src/lwp/kernel_wait.h"
#include "src/stats/stats.h"
#include "src/util/clock.h"
#include "src/util/futex.h"
#include "src/util/spinlock.h"

namespace sunmt {

// Every push is a new wait instance, so it advances the thread's
// block-generation. Timeout fires validate `generation == block_generation`
// before touching the queue; bumping on EVERY push — not just timed ones — is
// load-bearing: a stale fire whose cancel lost the race must not match a later
// *untimed* wait on the same object. (Flushed out by the shakedown sweep: a
// stale sema_p_timed fire matched a later plain sema_p on the same semaphore
// and woke it without a credit — a phantom credit that overwrote an unread
// message-queue slot.) Timed waiters read block_generation after pushing.
inline void WaitqPush(Tcb** head, Tcb** tail, Tcb* tcb) {
  ++tcb->block_generation;
  tcb->wait_next = nullptr;
  if (*tail != nullptr) {
    (*tail)->wait_next = tcb;
  } else {
    *head = tcb;
  }
  *tail = tcb;
}

inline Tcb* WaitqPop(Tcb** head, Tcb** tail) {
  Tcb* tcb = *head;
  if (tcb != nullptr) {
    *head = tcb->wait_next;
    if (*head == nullptr) {
      *tail = nullptr;
    }
    tcb->wait_next = nullptr;
  }
  return tcb;
}

inline bool WaitqEmpty(const Tcb* head) { return head == nullptr; }

// True if the thread is on the chain. Lets a racing dequeuer (e.g. a timeout
// fire) validate membership — and, since queued implies alive, safely read the
// TCB — before deciding to remove: remove-then-restore would re-push at the
// tail and silently cost the waiter its FIFO hand-off position.
inline bool WaitqContains(const Tcb* head, const Tcb* tcb) {
  for (const Tcb* cur = head; cur != nullptr; cur = cur->wait_next) {
    if (cur == tcb) {
      return true;
    }
  }
  return false;
}

// Removes a specific thread from the chain. Returns true if it was present.
inline bool WaitqRemove(Tcb** head, Tcb** tail, Tcb* tcb) {
  Tcb* prev = nullptr;
  for (Tcb* cur = *head; cur != nullptr; prev = cur, cur = cur->wait_next) {
    if (cur != tcb) {
      continue;
    }
    if (prev != nullptr) {
      prev->wait_next = cur->wait_next;
    } else {
      *head = cur->wait_next;
    }
    if (*tail == cur) {
      *tail = prev;
    }
    cur->wait_next = nullptr;
    return true;
  }
  return false;
}

// ---- Contention-wait timing -------------------------------------------------
// Used on every sync slow path: SyncWaitStartNs() before waiting (0 means
// "don't bother" — neither stats nor trace wants the sample, so no clock is
// read), SyncWaitEndNs() after reacquisition.

inline int64_t SyncWaitStartNs() {
  return (Stats::Enabled() || Trace::IsEnabled()) ? MonotonicNowNs() : 0;
}

inline void SyncWaitEndNs(LatencyStat stat, TraceEvent event, uint64_t tid,
                          int64_t start_ns) {
  if (start_ns == 0) {
    return;
  }
  int64_t waited = MonotonicNowNs() - start_ns;
  if (waited < 0) {
    waited = 0;
  }
  Stats::RecordNs(stat, waited);
  Trace::Record(event, tid, static_cast<uint64_t>(waited));
}

// ---- The wait bracket ---------------------------------------------------------
// Every blocking wait on a sync variable goes through one of these two, so a
// wait records the same things whichever operation (timed or not) it serves.
// The adaptive mutex's local path is the one exception: it times a whole
// contention, spin included, as one sample.

// Blocks the calling thread (never its LWP) on a process-local variable.
// `self` is already published to its waker (queued, or named as the rwlock
// upgrader) under `qlock`, which is held here and released after the context
// save. Records the lockdep waiting-on edge, and one `stat` sample and
// `event` trace record for the block.
inline void WaitqBlock(SpinLock* qlock, lockdep::ObjDebug* dbg,
                       lockdep::Kind kind, uint32_t ld_flags, LatencyStat stat,
                       TraceEvent event, Tcb* self) {
  int64_t t0 = SyncWaitStartNs();
  if (lockdep::Enabled()) {
    lockdep::OnBlock(dbg, kind, ld_flags);
  }
  sched::Block(qlock);
  if (lockdep::Enabled()) {
    lockdep::OnUnblock();
  }
  SyncWaitEndNs(stat, event, static_cast<uint64_t>(self->id), t0);
}

// Blocks the calling LWP in the kernel while a process-shared variable's
// futex `word` still reads `expected`, for at most `timeout_ns` (< 0: no
// bound). The thread stays bound to its LWP for the wait, which counts toward
// SIGWAITING. Returns FutexWait's result (-ETIMEDOUT on timeout). The callers
// loop and time their whole wait themselves: one contention may take several
// futex waits.
inline int FutexBlock(std::atomic<uint32_t>* word, uint32_t expected,
                      lockdep::ObjDebug* dbg, lockdep::Kind kind,
                      uint32_t ld_flags, int64_t timeout_ns = -1) {
  if (lockdep::Enabled()) {
    // For a shared object this also publishes breadcrumbs into the shared
    // locks we hold, so a cross-process cycle is seen before we sleep.
    lockdep::OnBlock(dbg, kind, ld_flags);
  }
  int rc;
  {
    KernelWaitScope wait(/*indefinite=*/true);
    rc = FutexWait(word, expected, /*shared=*/true, timeout_ns);
  }
  if (lockdep::Enabled()) {
    lockdep::OnUnblock();
  }
  return rc;
}

}  // namespace sunmt

#endif  // SUNMT_SRC_SYNC_WAITQ_H_
