// Mutex locks.
//
// Variants (paper: "mutual exclusion locks may be implemented as spin locks,
// sleep locks, or adaptive locks"):
//   default / SYNC_ADAPTIVE : CAS fast path, bounded spin, then block the thread
//   SYNC_SPIN               : never blocks the thread; spins with backoff + yield
//   SYNC_DEBUG              : ownership checking (strict bracketing enforcement)
//   THREAD_SYNC_SHARED      : futex protocol on the word, usable across processes

#include "src/sync/sync.h"

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/lwp/lwp.h"
#include "src/lwp/onproc.h"
#include "src/sync/waitq.h"
#include "src/util/check.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

// Shared-variant word protocol: 0 free, 1 held, 2 held with (possible) waiters.
constexpr uint32_t kFree = 0;
constexpr uint32_t kHeld = 1;
constexpr uint32_t kContended = 2;

// Adaptive spin budget before blocking (tuned small: blocking is cheap here).
constexpr int kAdaptiveSpins = 128;

bool IsShared(const mutex_t* mp) { return (mp->type & THREAD_SYNC_SHARED) != 0; }
bool IsSpin(const mutex_t* mp) { return (mp->type & SYNC_SPIN) != 0; }
bool IsDebug(const mutex_t* mp) { return (mp->type & SYNC_DEBUG) != 0; }

// Lockdep acquire/release flags for this mutex (owner tracked for the
// wait-for graph; shared objects get pid-tagged owners + breadcrumbs).
uint32_t LdFlags(const mutex_t* mp) {
  return lockdep::kFlagOwner |
         (IsShared(mp) ? static_cast<uint32_t>(lockdep::kFlagShared) : 0u);
}

// The local blocking variants (adaptive + debug) maintain the owner token the
// owner-aware spin policy reads; spin and shared variants never block a
// thread on the waitq, so they skip the bookkeeping.
bool TracksOwnerToken(const mutex_t* mp) { return !IsShared(mp) && !IsSpin(mp); }

// Publishes "I hold this lock, from this LWP" after an acquisition: the
// caller's ON-PROC slot names it. Token 0 (off-LWP / no slot) is fine:
// spinners treat unknown owners as running.
void PublishOwnerToken(mutex_t* mp) {
  Lwp* lwp = Lwp::Current();
  uint64_t token = lwp != nullptr ? onproc::OwnerToken(lwp->onproc_slot()) : 0;
  mp->owner_token.store(token, std::memory_order_relaxed);
}

// Splits the kMutexWaitAdaptive distribution by how the wait was resolved, so
// the spin-vs-block policy shift is visible in FormatStats() directly.
void RecordAdaptiveOutcome(const mutex_t* mp, int64_t t0, bool resolved_by_spin) {
  if (t0 == 0 || !Stats::Enabled() || IsDebug(mp)) {
    return;
  }
  int64_t waited = MonotonicNowNs() - t0;
  Stats::RecordNs(resolved_by_spin ? LatencyStat::kMutexWaitAdaptiveSpin
                                   : LatencyStat::kMutexWaitAdaptiveBlock,
                  waited > 0 ? waited : 0);
}

// Metrics are keyed by variant so the distributions answer the lock-choice
// question directly (spin vs adaptive vs debug vs shared).
LatencyStat MutexWaitStat(const mutex_t* mp) {
  if (IsShared(mp)) return LatencyStat::kMutexWaitShared;
  if (IsSpin(mp)) return LatencyStat::kMutexWaitSpin;
  if (IsDebug(mp)) return LatencyStat::kMutexWaitDebug;
  return LatencyStat::kMutexWaitAdaptive;
}

LatencyStat MutexHoldStat(const mutex_t* mp) {
  if (IsShared(mp)) return LatencyStat::kMutexHoldShared;
  if (IsSpin(mp)) return LatencyStat::kMutexHoldSpin;
  if (IsDebug(mp)) return LatencyStat::kMutexHoldDebug;
  return LatencyStat::kMutexHoldAdaptive;
}

uint64_t CurrentTid() {
  Tcb* self = sched::CurrentTcb();
  return self != nullptr ? static_cast<uint64_t>(self->id) : 0;
}

// SYNC_DEBUG deadlock detection: each blocker first publishes its own
// wait-for edge (seq_cst), then walks the graph (thread -> mutex it blocks on
// -> that mutex's owner -> ...); reaching ourselves means the cycle is closed.
// Publish-before-scan with seq_cst ordering guarantees that of the threads
// closing a cycle, at least one sees the complete cycle and panics instead of
// deadlocking. The walk only reads SYNC_DEBUG-maintained fields and terminates
// early on any transient inconsistency — a stable cycle (a true deadlock) is
// always stable enough to detect.
void DebugCheckForDeadlock(mutex_t* mp, Tcb* self) {
  self->waiting_for_mutex.store(mp, std::memory_order_seq_cst);
  mutex_t* cursor = mp;
  for (int hops = 0; hops < 64 && cursor != nullptr; ++hops) {
    Tcb* owner = cursor->owner.load(std::memory_order_relaxed);
    if (owner == nullptr) {
      return;  // lock free or handoff in progress: no stable cycle
    }
    if (owner == self) {
      SUNMT_PANIC("deadlock detected: mutex wait-for cycle (SYNC_DEBUG)");
    }
    cursor =
        static_cast<mutex_t*>(owner->waiting_for_mutex.load(std::memory_order_seq_cst));
  }
}

void SharedEnter(mutex_t* mp) {
  uint32_t cur = kFree;
  if (mp->word.compare_exchange_strong(cur, kHeld, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    return;
  }
  // Contended: the calling thread stays bound to its LWP, which blocks in the
  // kernel (futex) until the holder — possibly in another process — releases.
  // Each block walks the wait-for graph with seq_cst publish-then-walk, so
  // whichever process closes a cross-process cycle sees it before sleeping.
  int64_t t0 = SyncWaitStartNs();
  while (mp->word.exchange(kContended, std::memory_order_acquire) != kFree) {
    FutexBlock(&mp->word, kContended, &mp->lockdep_dbg, lockdep::kMutex,
               LdFlags(mp));
  }
  SyncWaitEndNs(LatencyStat::kMutexWaitShared, TraceEvent::kMutexWait,
                CurrentTid(), t0);
}

void SharedExit(mutex_t* mp) {
  if (mp->word.exchange(kFree, std::memory_order_release) == kContended) {
    FutexWake(&mp->word, 1, /*shared=*/true);
  }
}

void LocalEnter(mutex_t* mp) {
  uint32_t cur = kFree;
  if (mp->word.compare_exchange_strong(cur, kHeld, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    return;
  }
  // Past the uncontended fast path: everything below is a contention wait.
  int64_t t0 = SyncWaitStartNs();
  if (IsSpin(mp)) {
    Backoff backoff;
    int spins = 0;
    for (;;) {
      cur = kFree;
      if (mp->word.compare_exchange_weak(cur, kHeld, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        SyncWaitEndNs(LatencyStat::kMutexWaitSpin, TraceEvent::kMutexWait,
                      CurrentTid(), t0);
        return;
      }
      backoff.Pause();
      // On a single LWP a pure spin would never let the holder run; yield
      // periodically so the spin variant stays usable there.
      if (++spins % 64 == 0) {
        sched::Yield();
      }
    }
  }
  // Adaptive: spin (with exponential backoff) only while the holder is
  // observed ON-PROC — a running holder releases in bounded time, so spinning
  // is cheaper than a block/wake round trip. A parked or preempted holder
  // cannot release no matter how long we spin, so the moment the owner token
  // reads off-proc we queue and block the thread (the LWP goes on to run
  // other threads). An unknown owner (token 0: acquire/release in progress,
  // or a holder with no slot) is treated as running.
  int pause = 1;  // exponential, but capped low: long pauses straddle hand-offs
  for (int i = 0; i < kAdaptiveSpins; ++i) {
    cur = kFree;
    if (mp->word.compare_exchange_weak(cur, kHeld, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      SyncWaitEndNs(MutexWaitStat(mp), TraceEvent::kMutexWait, CurrentTid(), t0);
      RecordAdaptiveOutcome(mp, t0, /*resolved_by_spin=*/true);
      return;
    }
    uint64_t owner = mp->owner_token.load(std::memory_order_relaxed);
    if (owner != 0 && !onproc::TokenRunning(owner)) {
      break;  // holder is off its LWP: block immediately
    }
    for (int p = 0; p < pause; ++p) {
      CpuRelax();
    }
    if (pause < 16) {
      pause <<= 1;
    }
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  mp->qlock.Lock();
  for (;;) {
    cur = kFree;
    if (mp->word.compare_exchange_strong(cur, kHeld, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      mp->qlock.Unlock();
      SyncWaitEndNs(MutexWaitStat(mp), TraceEvent::kMutexWait,
                    static_cast<uint64_t>(self->id), t0);
      RecordAdaptiveOutcome(mp, t0, /*resolved_by_spin=*/false);
      return;
    }
    if (IsDebug(mp)) {
      DebugCheckForDeadlock(mp, self);  // publishes the wait-for edge first
    }
    if (lockdep::Enabled()) {
      lockdep::OnBlock(&mp->lockdep_dbg, lockdep::kMutex, LdFlags(mp));
    }
    WaitqPush(&mp->wait_head, &mp->wait_tail, self);
    sched::Block(&mp->qlock);  // releases qlock after the context save
    if (lockdep::Enabled()) {
      lockdep::OnUnblock();
    }
    if (IsDebug(mp)) {
      self->waiting_for_mutex.store(nullptr, std::memory_order_release);
    }
    mp->qlock.Lock();
  }
}

void LocalExit(mutex_t* mp) {
  mp->word.store(kFree, std::memory_order_release);
  Tcb* waiter = nullptr;
  {
    SpinLockGuard guard(mp->qlock);
    waiter = WaitqPop(&mp->wait_head, &mp->wait_tail);
  }
  if (waiter != nullptr) {
    sched::Wake(waiter);
  }
}

}  // namespace

void mutex_init(mutex_t* mp, int type, void* arg) {
  (void)arg;  // reserved, per the paper's interface
  mp->word.store(0, std::memory_order_relaxed);
  mp->type = static_cast<uint32_t>(type);
  mp->wait_head = nullptr;
  mp->wait_tail = nullptr;
  mp->owner.store(nullptr, std::memory_order_relaxed);
  mp->owner_token.store(0, std::memory_order_relaxed);
  mp->acquired_ns = 0;
  mp->qlock.Reset();  // storage may carry a stale locked image (see sema_init)
  lockdep::OnInit(&mp->lockdep_dbg, lockdep::kMutex,
                  reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

void mutex_enter(mutex_t* mp) {
  if (IsDebug(mp)) {
    Tcb* self = sched::CurrentTcbOrAdopt();
    // A recursive enter is a bracketing error.
    SUNMT_CHECK(mp->owner.load(std::memory_order_relaxed) != self);
  }
  const uintptr_t caller =
      reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  if (lockdep::Enabled()) {
    // Order check runs before the acquire: an inversion is reported at the
    // second acquisition site even if the schedule never deadlocks.
    lockdep::OnAcquireCheck(&mp->lockdep_dbg, lockdep::kMutex, caller);
  }
  if (IsShared(mp)) {
    SharedEnter(mp);
  } else {
    LocalEnter(mp);
  }
  if (lockdep::Enabled()) {
    lockdep::OnAcquired(&mp->lockdep_dbg, lockdep::kMutex, caller, LdFlags(mp));
  }
  if (TracksOwnerToken(mp)) {
    PublishOwnerToken(mp);
  }
  if (IsDebug(mp)) {
    mp->owner.store(sched::CurrentTcb(), std::memory_order_relaxed);
  }
  if (Stats::Enabled()) {
    mp->acquired_ns = MonotonicNowNs();
  }
}

void mutex_exit(mutex_t* mp) {
  if (lockdep::Enabled()) {
    // Before the word releases: a racing new owner must not see stale
    // ownership, and must not have its fresh ownership wiped by this clear.
    lockdep::OnRelease(&mp->lockdep_dbg, LdFlags(mp));
  }
  if (IsDebug(mp)) {
    // "It is an error for a thread to release a lock not held by the thread."
    Tcb* self = sched::CurrentTcbOrAdopt();
    SUNMT_CHECK(mp->owner.load(std::memory_order_relaxed) == self);
    mp->owner.store(nullptr, std::memory_order_relaxed);
  }
  if (mp->acquired_ns != 0) {
    // Stats may have been toggled mid-hold; the reset keeps stale timestamps
    // from surviving a disable.
    if (Stats::Enabled()) {
      Stats::RecordNs(MutexHoldStat(mp), MonotonicNowNs() - mp->acquired_ns);
    }
    mp->acquired_ns = 0;
  }
  if (TracksOwnerToken(mp)) {
    // Cleared before the word releases: a spinner may then read a transient 0
    // ("unknown"), which only makes it spin once more and retry the CAS.
    mp->owner_token.store(0, std::memory_order_relaxed);
  }
  if (IsShared(mp)) {
    SharedExit(mp);
  } else {
    LocalExit(mp);
  }
}

int mutex_tryenter(mutex_t* mp) {
  uint32_t cur = kFree;
  bool ok = mp->word.compare_exchange_strong(cur, kHeld, std::memory_order_acquire,
                                             std::memory_order_relaxed);
  if (ok && TracksOwnerToken(mp)) {
    PublishOwnerToken(mp);
  }
  if (ok && IsDebug(mp)) {
    mp->owner.store(sched::CurrentTcbOrAdopt(), std::memory_order_relaxed);
  }
  if (ok && Stats::Enabled()) {
    mp->acquired_ns = MonotonicNowNs();
  }
  if (ok && lockdep::Enabled()) {
    // kFlagTry: a trylock cannot deadlock, so it adds no order edges.
    lockdep::OnAcquired(&mp->lockdep_dbg, lockdep::kMutex,
                        reinterpret_cast<uintptr_t>(__builtin_return_address(0)),
                        LdFlags(mp) | lockdep::kFlagTry);
  }
  return ok ? 1 : 0;
}

void mutex_set_name(mutex_t* mp, const char* name) {
  lockdep::SetName(&mp->lockdep_dbg, lockdep::kMutex, name);
}

void mutex_set_order(mutex_t* mp, int level) {
  lockdep::SetOrder(&mp->lockdep_dbg, lockdep::kMutex, level,
                    reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

}  // namespace sunmt
