// Multiple readers, single writer locks.
//
// Local variant: all transitions under the qlock, with direct hand-off — the
// waker updates the lock state on behalf of the threads it wakes, so woken
// threads return without re-contending. Writers are preferred (new readers queue
// behind waiting writers) to avoid writer starvation. rw_downgrade() follows the
// paper exactly: "any waiting writers remain waiting; if there are no waiting
// writers it wakes up any pending readers." rw_tryupgrade() fails if another
// upgrade is in progress or writers are waiting, otherwise waits for the other
// readers to drain.
//
// Shared variant: one futex word (bit 31 writer, bit 30 writers-waiting, low bits
// reader count), address-free across processes.

#include "src/sync/sync.h"

#include <climits>

#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/sync/waitq.h"
#include "src/util/check.h"
#include "src/util/futex.h"

namespace sunmt {
namespace {

constexpr uint32_t kWriterBit = 1u << 31;
constexpr uint32_t kWriterWaitBit = 1u << 30;  // shared variant only
constexpr uint32_t kReaderMask = kWriterWaitBit - 1;

constexpr uint8_t kModeReader = 0;
constexpr uint8_t kModeWriter = 1;

bool IsShared(const rwlock_t* rwlp) { return (rwlp->type & THREAD_SYNC_SHARED) != 0; }

// Only a writer hold is exclusive ownership the wait-for graph can follow;
// reader holds still enter the held stack / order graph.
uint32_t LdFlags(const rwlock_t* rwlp, rw_type_t type) {
  return (type == RW_WRITER ? static_cast<uint32_t>(lockdep::kFlagOwner) : 0u) |
         (IsShared(rwlp) ? static_cast<uint32_t>(lockdep::kFlagShared) : 0u);
}

// ---- Local variant ----------------------------------------------------------

// Admits queued threads after the lock became free. Called with qlock held;
// returns a chain of threads to wake (linked via wait_next) after unlock.
Tcb* AdmitNextLocked(rwlock_t* rwlp) {
  Tcb* front = rwlp->wait_head;
  if (front == nullptr) {
    return nullptr;
  }
  if (front->wait_mode == kModeWriter) {
    Tcb* writer = WaitqPop(&rwlp->wait_head, &rwlp->wait_tail);
    --rwlp->waiting_writers;
    rwlp->state.store(kWriterBit, std::memory_order_relaxed);
    writer->wait_next = nullptr;
    return writer;
  }
  // Admit the contiguous run of readers at the head of the queue.
  Tcb* chain = nullptr;
  Tcb** link = &chain;
  uint32_t admitted = 0;
  while (rwlp->wait_head != nullptr && rwlp->wait_head->wait_mode == kModeReader) {
    Tcb* reader = WaitqPop(&rwlp->wait_head, &rwlp->wait_tail);
    *link = reader;
    link = &reader->wait_next;
    ++admitted;
  }
  *link = nullptr;
  rwlp->state.store(admitted, std::memory_order_relaxed);
  return chain;
}

void WakeChain(Tcb* chain) {
  while (chain != nullptr) {
    Tcb* next = chain->wait_next;
    chain->wait_next = nullptr;
    sched::Wake(chain);
    chain = next;
  }
}

void LocalEnter(rwlock_t* rwlp, rw_type_t type) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  rwlp->qlock.Lock();
  uint32_t s = rwlp->state.load(std::memory_order_relaxed);
  if (type == RW_READER) {
    if ((s & kWriterBit) == 0 && rwlp->waiting_writers == 0 && rwlp->upgrader == nullptr) {
      rwlp->state.store(s + 1, std::memory_order_relaxed);
      rwlp->qlock.Unlock();
      return;
    }
    self->wait_mode = kModeReader;
  } else {
    if (s == 0) {
      rwlp->state.store(kWriterBit, std::memory_order_relaxed);
      rwlp->qlock.Unlock();
      return;
    }
    self->wait_mode = kModeWriter;
    ++rwlp->waiting_writers;
  }
  WaitqPush(&rwlp->wait_head, &rwlp->wait_tail, self);
  // Direct hand-off: the waker transfers ownership to us before the wake.
  WaitqBlock(&rwlp->qlock, &rwlp->lockdep_dbg, lockdep::kRwlock, 0,
             LatencyStat::kRwlockWaitLocal, TraceEvent::kRwWait, self);
}

void LocalExit(rwlock_t* rwlp) {
  rwlp->qlock.Lock();
  uint32_t s = rwlp->state.load(std::memory_order_relaxed);
  Tcb* wake_chain = nullptr;
  Tcb* upgrader = nullptr;
  if ((s & kWriterBit) != 0) {
    rwlp->state.store(0, std::memory_order_relaxed);
    wake_chain = AdmitNextLocked(rwlp);
  } else {
    SUNMT_CHECK((s & kReaderMask) > 0);  // exit without a held reader lock
    uint32_t readers = (s & kReaderMask) - 1;
    rwlp->state.store(readers, std::memory_order_relaxed);
    if (readers == 1 && rwlp->upgrader != nullptr) {
      // Only the upgrading reader remains: convert its hold to a writer lock.
      upgrader = rwlp->upgrader;
      rwlp->upgrader = nullptr;
      rwlp->state.store(kWriterBit, std::memory_order_relaxed);
    } else if (readers == 0) {
      wake_chain = AdmitNextLocked(rwlp);
    }
  }
  rwlp->qlock.Unlock();
  if (upgrader != nullptr) {
    sched::Wake(upgrader);
  }
  WakeChain(wake_chain);
}

int LocalTryEnter(rwlock_t* rwlp, rw_type_t type) {
  SpinLockGuard guard(rwlp->qlock);
  uint32_t s = rwlp->state.load(std::memory_order_relaxed);
  if (type == RW_READER) {
    if ((s & kWriterBit) == 0 && rwlp->waiting_writers == 0 && rwlp->upgrader == nullptr) {
      rwlp->state.store(s + 1, std::memory_order_relaxed);
      return 1;
    }
    return 0;
  }
  if (s == 0) {
    rwlp->state.store(kWriterBit, std::memory_order_relaxed);
    return 1;
  }
  return 0;
}

void LocalDowngrade(rwlock_t* rwlp) {
  rwlp->qlock.Lock();
  uint32_t s = rwlp->state.load(std::memory_order_relaxed);
  SUNMT_CHECK((s & kWriterBit) != 0);  // downgrade without the writer lock
  uint32_t readers = 1;                // the caller's new reader hold
  Tcb* chain = nullptr;
  if (rwlp->waiting_writers == 0) {
    // "If there are no waiting writers it wakes up any pending readers."
    Tcb** link = &chain;
    while (rwlp->wait_head != nullptr && rwlp->wait_head->wait_mode == kModeReader) {
      Tcb* reader = WaitqPop(&rwlp->wait_head, &rwlp->wait_tail);
      *link = reader;
      link = &reader->wait_next;
      ++readers;
    }
    *link = nullptr;
  }
  rwlp->state.store(readers, std::memory_order_relaxed);
  rwlp->qlock.Unlock();
  WakeChain(chain);
}

int LocalTryUpgrade(rwlock_t* rwlp) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  rwlp->qlock.Lock();
  uint32_t s = rwlp->state.load(std::memory_order_relaxed);
  SUNMT_CHECK((s & kWriterBit) == 0 && (s & kReaderMask) > 0);  // must hold a reader
  if (rwlp->upgrader != nullptr || rwlp->waiting_writers > 0) {
    rwlp->qlock.Unlock();
    return 0;
  }
  if ((s & kReaderMask) == 1) {
    rwlp->state.store(kWriterBit, std::memory_order_relaxed);
    rwlp->qlock.Unlock();
    return 1;
  }
  // Other readers hold the lock: wait for them to drain (new readers are kept
  // out while an upgrade is pending).
  rwlp->upgrader = self;
  // The last exiting reader converts our hold to a writer lock.
  WaitqBlock(&rwlp->qlock, &rwlp->lockdep_dbg, lockdep::kRwlock, 0,
             LatencyStat::kRwlockWaitLocal, TraceEvent::kRwWait, self);
  return 1;
}

// ---- Shared (futex) variant ---------------------------------------------------

void SharedEnter(rwlock_t* rwlp, rw_type_t type) {
  std::atomic<uint32_t>* word = &rwlp->state;
  // A reader needs no writer and no waiting writer; a writer needs the word
  // free apart from the waiting-writer bit, which it sets before it sleeps.
  const uint32_t busy = type == RW_READER ? kWriterBit | kWriterWaitBit
                                          : ~kWriterWaitBit;
  int64_t t0 = 0;  // started lazily on the first futex wait
  for (;;) {
    uint32_t s = word->load(std::memory_order_relaxed);
    if ((s & busy) == 0) {
      uint32_t next = type == RW_READER ? s + 1 : kWriterBit;
      if (word->compare_exchange_weak(s, next, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        break;
      }
      continue;
    }
    if (type == RW_WRITER && (s & kWriterWaitBit) == 0) {
      if (!word->compare_exchange_weak(s, s | kWriterWaitBit, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
        continue;
      }
      s |= kWriterWaitBit;
    }
    if (t0 == 0) {
      t0 = SyncWaitStartNs();
    }
    FutexBlock(word, s, &rwlp->lockdep_dbg, lockdep::kRwlock,
               lockdep::kFlagShared);
  }
  if (t0 != 0) {
    Tcb* self = sched::CurrentTcb();
    SyncWaitEndNs(LatencyStat::kRwlockWaitShared, TraceEvent::kRwWait,
                  self != nullptr ? static_cast<uint64_t>(self->id) : 0, t0);
  }
}

void SharedExit(rwlock_t* rwlp) {
  std::atomic<uint32_t>* word = &rwlp->state;
  uint32_t s = word->load(std::memory_order_relaxed);
  if ((s & kWriterBit) != 0) {
    word->store(0, std::memory_order_release);
    FutexWake(word, INT_MAX, /*shared=*/true);
    return;
  }
  uint32_t remaining = word->fetch_sub(1, std::memory_order_release) - 1;
  if ((remaining & kReaderMask) == 0 && remaining != 0) {
    // Last reader out with writers waiting: clear the flag and wake them.
    word->fetch_and(~kWriterWaitBit, std::memory_order_release);
    FutexWake(word, INT_MAX, /*shared=*/true);
  }
}

int SharedTryEnter(rwlock_t* rwlp, rw_type_t type) {
  std::atomic<uint32_t>* word = &rwlp->state;
  uint32_t s = word->load(std::memory_order_relaxed);
  if (type == RW_READER) {
    while ((s & (kWriterBit | kWriterWaitBit)) == 0) {
      if (word->compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return 1;
      }
    }
    return 0;
  }
  uint32_t expected = 0;
  return word->compare_exchange_strong(expected, kWriterBit, std::memory_order_acquire,
                                       std::memory_order_relaxed)
             ? 1
             : 0;
}

void SharedDowngrade(rwlock_t* rwlp) {
  rwlp->state.store(1, std::memory_order_release);
  FutexWake(&rwlp->state, INT_MAX, /*shared=*/true);
}

int SharedTryUpgrade(rwlock_t* rwlp) {
  uint32_t expected = 1;
  return rwlp->state.compare_exchange_strong(expected, kWriterBit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)
             ? 1
             : 0;
}

}  // namespace

void rw_init(rwlock_t* rwlp, int type, void* arg) {
  (void)arg;
  rwlp->state.store(0, std::memory_order_relaxed);
  rwlp->type = static_cast<uint32_t>(type);
  rwlp->wait_head = nullptr;
  rwlp->wait_tail = nullptr;
  rwlp->waiting_writers = 0;
  rwlp->upgrader = nullptr;
  rwlp->qlock.Reset();  // storage may carry a stale locked image (see sema_init)
  lockdep::OnInit(&rwlp->lockdep_dbg, lockdep::kRwlock,
                  reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

void rw_enter(rwlock_t* rwlp, rw_type_t type) {
  const uintptr_t caller =
      reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  if (lockdep::Enabled()) {
    lockdep::OnAcquireCheck(&rwlp->lockdep_dbg, lockdep::kRwlock, caller);
  }
  if (IsShared(rwlp)) {
    SharedEnter(rwlp, type);
  } else {
    LocalEnter(rwlp, type);
  }
  if (lockdep::Enabled()) {
    lockdep::OnAcquired(&rwlp->lockdep_dbg, lockdep::kRwlock, caller,
                        LdFlags(rwlp, type));
  }
}

void rw_exit(rwlock_t* rwlp) {
  if (lockdep::Enabled()) {
    // The caller is either the writer (bit set, stable while held) or one of
    // the readers; only a writer exit clears ownership.
    bool was_writer =
        (rwlp->state.load(std::memory_order_relaxed) & kWriterBit) != 0;
    lockdep::OnRelease(&rwlp->lockdep_dbg,
                       LdFlags(rwlp, was_writer ? RW_WRITER : RW_READER));
  }
  if (IsShared(rwlp)) {
    SharedExit(rwlp);
  } else {
    LocalExit(rwlp);
  }
}

int rw_tryenter(rwlock_t* rwlp, rw_type_t type) {
  int ok = IsShared(rwlp) ? SharedTryEnter(rwlp, type) : LocalTryEnter(rwlp, type);
  if (ok != 0 && lockdep::Enabled()) {
    lockdep::OnAcquired(&rwlp->lockdep_dbg, lockdep::kRwlock,
                        reinterpret_cast<uintptr_t>(__builtin_return_address(0)),
                        LdFlags(rwlp, type) | lockdep::kFlagTry);
  }
  return ok;
}

void rw_downgrade(rwlock_t* rwlp) {
  if (lockdep::Enabled()) {
    lockdep::OnDowngrade(&rwlp->lockdep_dbg);
  }
  if (IsShared(rwlp)) {
    SharedDowngrade(rwlp);
  } else {
    LocalDowngrade(rwlp);
  }
}

int rw_tryupgrade(rwlock_t* rwlp) {
  int ok = IsShared(rwlp) ? SharedTryUpgrade(rwlp) : LocalTryUpgrade(rwlp);
  if (ok != 0 && lockdep::Enabled()) {
    lockdep::OnUpgrade(&rwlp->lockdep_dbg,
                       IsShared(rwlp) ? static_cast<uint32_t>(lockdep::kFlagShared)
                                      : 0u);
  }
  return ok;
}

void rw_set_name(rwlock_t* rwlp, const char* name) {
  lockdep::SetName(&rwlp->lockdep_dbg, lockdep::kRwlock, name);
}

void rw_set_order(rwlock_t* rwlp, int level) {
  lockdep::SetOrder(&rwlp->lockdep_dbg, lockdep::kRwlock, level,
                    reinterpret_cast<uintptr_t>(__builtin_return_address(0)));
}

}  // namespace sunmt
