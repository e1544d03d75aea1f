// The timed-wait protocol behind sema_p_timed(), cv_timedwait() and the
// netpoller's deadline waits: a per-thread timer races the normal hand-off of
// a queued waiter, and whichever dequeues the waiter first wins — the paper's
// recipe for richer timing facilities ("library routines may implement
// multiple per-thread timers using the per-address space timer"). A timed
// wait is the ordinary wait plus one of these, so it lives beside the sync
// variables, one layer above the timer engine it arms.
//
// The rules every timed wait needs, kept in one place:
//   * The fire validates before it removes: the waiter must still be queued
//     (queued => alive, so its TCB is readable) and still in the same wait
//     (Tcb::block_generation matches). A stale timer for an earlier wait must
//     leave the queue untouched — remove-then-restore would re-push the
//     current waiter at the tail, costing it its FIFO position, and the
//     re-push would advance its generation so its own live timer could never
//     match again.
//   * The fire acks through Tcb::timeout_fire_seq once it is done with the
//     queue, BEFORE it wakes the waiter.
//   * A waiter whose timer_cancel loses the race waits for that ack before
//     returning: the fire still takes the queue's lock to find the waiter
//     gone, and the caller may destroy the object holding that lock the
//     moment the wait returns.
//   * So the waiter outlives every read the fire makes of its context, and
//     the context lives in the TimedWait on the waiter's stack: a timed wait
//     allocates nothing.

#ifndef SUNMT_SRC_SYNC_TIMED_WAIT_H_
#define SUNMT_SRC_SYNC_TIMED_WAIT_H_

#include <sched.h>

#include <atomic>
#include <cstdint>

#include "src/core/tcb.h"
#include "src/sync/waitq.h"
#include "src/timer/timer.h"
#include "src/util/spinlock.h"

namespace sunmt {

// Bounds one wait of a thread on a Tcb chain (head, tail) guarded by `lock`:
// a semaphore's or condvar's wait queue, or one direction of a netpoller fd
// entry. Usage:
//
//   lock held; WaitqPush(head, tail, self);
//   TimedWait<Wake> timeout;
//   timeout.Arm(lock, head, tail, self, timeout_ns);  // < 0: stays unarmed
//   block, releasing lock;
//   if (timeout.Finish()) { the timer dequeued us }
//
// Wake is the wake-up the normal path uses for this queue (sched::Wake, or
// the netpoller's fd wake), a template argument so the fire calls it
// directly.
template <void (*Wake)(Tcb*)>
class TimedWait {
 public:
  // Arms the timeout. Call with `lock` held, right after WaitqPush queued
  // `self`: the fire takes `lock` too, so it cannot see a half-enqueued
  // waiter, and self->block_generation now names this wait. A negative
  // timeout_ns leaves the wait unbounded and arms nothing.
  void Arm(SpinLock* lock, Tcb** head, Tcb** tail, Tcb* self,
           int64_t timeout_ns) {
    if (timeout_ns < 0) {
      return;
    }
    ctx_ = {lock, head, tail, self};
    self->timed_out = false;
    fire_seq_ = self->timeout_fire_seq.load(std::memory_order_relaxed);
    timer_ = timer_arm_callback(timeout_ns, &Fire, &ctx_, self->block_generation);
  }

  // Call once the waiter runs again. Returns true if the timer dequeued it.
  // Otherwise disarms the timer, and if the cancel lost the race waits for
  // the in-flight fire's ack. An unarmed wait returns false.
  bool Finish() const {
    if (ctx_.tcb == nullptr) {
      return false;
    }
    if (ctx_.tcb->timed_out) {
      return true;
    }
    if (timer_cancel(timer_) != 0) {
      AwaitFire();
    }
    return false;
  }

 private:
  struct Ctx {
    SpinLock* lock;
    Tcb** head;
    Tcb** tail;
    Tcb* tcb;
  };

  // Runs on the service thread when the timeout expires first. The
  // context is copied out first, so nothing below reads the waiter's stack:
  // once the ack lands, a waiter whose cancel lost may return and pop it.
  static void Fire(void* cookie, uint64_t generation) {
    Ctx ctx = *static_cast<const Ctx*>(cookie);
    bool matched = false;
    {
      SpinLockGuard guard(*ctx.lock);
      if (WaitqContains(*ctx.head, ctx.tcb) &&
          ctx.tcb->block_generation == generation) {
        WaitqRemove(ctx.head, ctx.tail, ctx.tcb);
        ctx.tcb->timed_out = true;
        matched = true;
      }
    }
    // Ack BEFORE the wake: the fire is done with the queue (lock released),
    // and the TCB is alive in both cases — a matched waiter stays blocked
    // until the wake below; a stale fire's waiter is spinning in AwaitFire
    // for exactly this ack.
    ctx.tcb->timeout_fire_seq.fetch_add(1, std::memory_order_release);
    if (matched) {
      Wake(ctx.tcb);
    }
  }

  // At most one fire per wait can be outstanding, because every cancel-failed
  // wait passes through here before the thread can arm another timer. The
  // spin is lock-free on the fire side and bounded by the timer engine's
  // callback backlog; the waiter holds no locks here.
  void AwaitFire() const {
    int spins = 0;
    while (ctx_.tcb->timeout_fire_seq.load(std::memory_order_acquire) ==
           fire_seq_) {
      if (++spins < 64) {
        CpuRelax();
      } else {
        sched_yield();  // the fire runs on the timer engine's kernel thread
      }
    }
  }

  Ctx ctx_ = {};  // the fire's cookie; ctx_.tcb stays null while unarmed
  uint64_t fire_seq_ = 0;
  timer_id_t timer_ = kInvalidTimerId;
};

}  // namespace sunmt

#endif  // SUNMT_SRC_SYNC_TIMED_WAIT_H_
