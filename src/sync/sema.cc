// Counting semaphores.
//
// "They are not as efficient as mutex locks, but they need not be bracketed ...
// they also contain state so they may be used asynchronously." sema_v() is safe
// from signal handlers (it never blocks).
//
// Local variant: direct hand-off — sema_v() gives the credit to the oldest waiter
// instead of bumping the count, so a woken thread returns without re-contending.
// Shared variant: futex protocol on the count word (address-free).
//
// sema_p() and sema_p_timed() are one wait: a timed P is the ordinary P plus a
// per-thread timer (timed_wait.h) that races sema_v() to dequeue the waiter.

#include "src/sync/sync.h"

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/sync/timed_wait.h"
#include "src/sync/waitq.h"
#include "src/util/clock.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

bool IsShared(const sema_t* sp) { return (sp->type & THREAD_SYNC_SHARED) != 0; }

// Semaphores have no owner: a credit P'd here may be V'd by any thread (the
// handshake idiom), so recording the last P-er as "owner" would fabricate
// wait-for cycles out of ordinary ping-pong. Semas therefore stay out of the
// deadlock walk entirely — no owner, no shared-memory breadcrumbs (a held
// sema entry can outlive its arena mapping, so stamping it would touch
// unmapped memory) — and participate only in the lock-order graph, where
// sema-as-lock AB/BA misuse is still caught at the second acquisition site.
uint32_t LdFlags(const sema_t*) { return 0; }

// Takes a credit if the count has one, without blocking.
bool SharedTake(sema_t* sp) {
  uint32_t cur = sp->count.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (sp->count.compare_exchange_weak(cur, cur - 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

// Returns 1 with a credit taken, 0 once `timeout_ns` (< 0: never) elapsed.
int SharedP(sema_t* sp, int64_t timeout_ns) {
  const int64_t deadline = timeout_ns >= 0 ? MonotonicNowNs() + timeout_ns : 0;
  int64_t t0 = 0;  // started lazily: only the blocking path is a "wait"
  int ok = 1;
  while (!SharedTake(sp)) {
    int64_t remaining = timeout_ns >= 0 ? deadline - MonotonicNowNs() : -1;
    if (timeout_ns >= 0 && remaining <= 0) {
      ok = 0;
      break;
    }
    if (t0 == 0) {
      t0 = SyncWaitStartNs();
    }
    FutexBlock(&sp->count, 0, &sp->lockdep_dbg, lockdep::kSema, LdFlags(sp),
               remaining);
  }
  if (t0 != 0) {
    Tcb* self = sched::CurrentTcb();
    SyncWaitEndNs(LatencyStat::kSemaWaitShared, TraceEvent::kSemaWait,
                  self != nullptr ? static_cast<uint64_t>(self->id) : 0, t0);
  }
  return ok;
}

int LocalP(sema_t* sp, int64_t timeout_ns) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  sp->qlock.Lock();
  uint32_t cur = sp->count.load(std::memory_order_relaxed);
  if (cur > 0) {
    sp->count.store(cur - 1, std::memory_order_relaxed);
    sp->qlock.Unlock();
    return 1;
  }
  WaitqPush(&sp->wait_head, &sp->wait_tail, self);  // advances block_generation
  TimedWait<&sched::Wake> timeout;
  timeout.Arm(&sp->qlock, &sp->wait_head, &sp->wait_tail, self, timeout_ns);
  WaitqBlock(&sp->qlock, &sp->lockdep_dbg, lockdep::kSema, LdFlags(sp),
             LatencyStat::kSemaWaitLocal, TraceEvent::kSemaWait, self);
  // Timed out: no credit consumed. Woken: sema_v handed the credit directly.
  return timeout.Finish() ? 0 : 1;
}

// The one P. Lockdep treats a timed P like a trylock: the wait is bounded, so
// it adds no order edges — but a success still enters the held stack.
int SemaP(sema_t* sp, int64_t timeout_ns, uintptr_t caller) {
  uint32_t ld_flags = LdFlags(sp);
  if (timeout_ns >= 0) {
    ld_flags |= lockdep::kFlagTry;
  } else if (lockdep::Enabled()) {
    lockdep::OnAcquireCheck(&sp->lockdep_dbg, lockdep::kSema, caller);
  }
  int ok = IsShared(sp) ? SharedP(sp, timeout_ns) : LocalP(sp, timeout_ns);
  if (ok != 0 && lockdep::Enabled()) {
    lockdep::OnAcquired(&sp->lockdep_dbg, lockdep::kSema, caller, ld_flags);
  }
  return ok;
}

}  // namespace

void sema_init(sema_t* sp, unsigned int count, int type, void* arg) {
  (void)arg;
  sp->count.store(count, std::memory_order_relaxed);
  sp->type = static_cast<uint32_t>(type);
  sp->wait_head = nullptr;
  sp->wait_tail = nullptr;
  // Re-initialization of a previously used variable ("initializing an already
  // initialized variable is legal but ill-advised"): the storage may carry a
  // stale locked qlock image — e.g. memcpy'd from a variable caught mid
  // critical section — which would deadlock the first waiter forever.
  sp->qlock.Reset();
  lockdep::OnInit(&sp->lockdep_dbg, lockdep::kSema,
                  reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

void sema_p(sema_t* sp) {
  SemaP(sp, -1, reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

int sema_p_timed(sema_t* sp, int64_t timeout_ns) {
  return SemaP(sp, timeout_ns < 0 ? 0 : timeout_ns,
               reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

void sema_v(sema_t* sp) {
  if (lockdep::Enabled()) {
    lockdep::OnRelease(&sp->lockdep_dbg, LdFlags(sp));
  }
  if (IsShared(sp)) {
    sp->count.fetch_add(1, std::memory_order_release);
    FutexWake(&sp->count, 1, /*shared=*/true);
    return;
  }
  Tcb* waiter = nullptr;
  {
    SpinLockGuard guard(sp->qlock);
    waiter = WaitqPop(&sp->wait_head, &sp->wait_tail);
    if (waiter == nullptr) {
      sp->count.store(sp->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }
  }
  if (waiter != nullptr) {
    sched::Wake(waiter);
  }
}

int sema_tryp(sema_t* sp) {
  const uintptr_t caller =
      reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  bool ok = false;
  if (IsShared(sp)) {
    ok = SharedTake(sp);
  } else {
    SpinLockGuard guard(sp->qlock);
    uint32_t cur = sp->count.load(std::memory_order_relaxed);
    if (cur > 0) {
      sp->count.store(cur - 1, std::memory_order_relaxed);
      ok = true;
    }
  }
  if (ok && lockdep::Enabled()) {
    lockdep::OnAcquired(&sp->lockdep_dbg, lockdep::kSema, caller,
                        LdFlags(sp) | lockdep::kFlagTry);
  }
  return ok ? 1 : 0;
}

void sema_set_name(sema_t* sp, const char* name) {
  lockdep::SetName(&sp->lockdep_dbg, lockdep::kSema, name);
}

void sema_set_order(sema_t* sp, int level) {
  lockdep::SetOrder(&sp->lockdep_dbg, lockdep::kSema, level,
                    reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

}  // namespace sunmt
