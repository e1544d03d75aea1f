// Internal helpers for the wait queues embedded in synchronization variables.
//
// The queues are singly-linked Tcb chains through Tcb::wait_next so that an
// all-zero sync variable is a valid empty queue (the zero-initialization
// requirement). All operations assume the variable's qlock is held.

#ifndef SUNMT_SRC_SYNC_WAITQ_H_
#define SUNMT_SRC_SYNC_WAITQ_H_

#include "src/core/tcb.h"
#include "src/core/trace.h"
#include "src/stats/stats.h"
#include "src/util/clock.h"

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

inline Tcb* WaitqPeek(Tcb* head) { return head; }

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

}  // namespace sunmt

#endif  // SUNMT_SRC_SYNC_WAITQ_H_
