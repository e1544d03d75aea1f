#include "src/core/scheduler.h"

#include <sched.h>
#include <stdlib.h>
#include <string.h>

#include <atomic>

#include "src/arch/stack.h"
#include "src/core/runtime.h"
#include "src/core/tls_arena.h"
#include "src/core/trace.h"
#include "src/debug/lockdep.h"
#include "src/inject/inject.h"
#include "src/lwp/lwp.h"
#include "src/lwp/onproc.h"
#include "src/signal/signal.h"
#include "src/stats/stats.h"
#include "src/tls/tsd.h"
#include "src/util/check.h"
#include "src/util/clock.h"

namespace sunmt {
namespace sched {
namespace {

// What a departing thread asks its LWP's dispatch loop to do after the context
// save completes.
enum class CommitKind : uint8_t {
  kYield,  // requeue prev as runnable
  kBlock,  // prev is on a sleep queue; mark blocked and release the queue lock
  kExit,   // prev has terminated; run exit bookkeeping
  kStop,   // prev stopped itself (thread_stop); park until thread_continue
};

struct SwitchCommit {
  CommitKind kind;
  Tcb* prev;
  SpinLock* unlock;  // kBlock only
};

// The thread `lwp` (the caller's own LWP, or null off-LWP) is running.
Tcb* RunningOn(Lwp* lwp) {
  return lwp != nullptr
             ? static_cast<Tcb*>(lwp->current_thread.load(std::memory_order_relaxed))
             : nullptr;
}

// Switches from the current thread to its LWP's dispatch context, delivering the
// commit. Returns when the thread is next dispatched, perhaps on another LWP.
void* Deschedule(Lwp* lwp, Tcb* self, SwitchCommit* commit) {
  return self->ctx.SwitchTo(lwp->sched_ctx, commit);
}

void RunCommit(SwitchCommit* commit) {
  Tcb* prev = commit->prev;
  switch (commit->kind) {
    case CommitKind::kYield: {
      GlobalSchedStats().yields.Inc();
      Trace::Record(TraceEvent::kYield, prev->id, 0);
      {
        SpinLockGuard guard(prev->state_lock);
        prev->state.store(ThreadState::kRunnable, std::memory_order_release);
      }
      if (Stats::Enabled()) {
        prev->runnable_since_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
      }
      // Requeue (no wake affinity): behind equal-priority peers, normally in
      // the shard of the LWP it just ran on. RunCommit runs on the dispatch
      // stack, so this LWP pops again right away — no wake needed.
      Runtime::Get().RequeueFromDispatch(prev);
      break;
    }
    case CommitKind::kBlock: {
      GlobalSchedStats().blocks.Inc();
      Trace::Record(TraceEvent::kBlock, prev->id, 0);
      {
        SpinLockGuard guard(prev->state_lock);
        prev->state.store(ThreadState::kBlocked, std::memory_order_release);
      }
      commit->unlock->Unlock();
      break;
    }
    case CommitKind::kStop: {
      Trace::Record(TraceEvent::kStop, prev->id, 0);
      SpinLockGuard guard(prev->state_lock);
      prev->stop_requested.store(false, std::memory_order_relaxed);
      prev->state.store(ThreadState::kStopped, std::memory_order_release);
      break;
    }
    case CommitKind::kExit: {
      GlobalSchedStats().threads_exited.Inc();
      Trace::Record(TraceEvent::kExit, prev->id, 0);
      Runtime::Get().OnThreadExit(prev);
      break;
    }
  }
}

// Adoption of foreign kernel threads (including the initial program thread).
// The adopted thread becomes a bound thread whose LWP is the calling kernel
// thread; the LWP's dispatch loop runs on a small side stack entered the first
// time the thread blocks.
void AdoptedSchedMain(void* first_commit) {
  auto* commit = static_cast<SwitchCommit*>(first_commit);
  Lwp* self = Lwp::Current();
  SUNMT_CHECK(self != nullptr);
  Tcb* tcb = commit->prev;
  self->current_thread.store(nullptr, std::memory_order_relaxed);
  onproc::Publish(self->onproc_slot(), 0);
  RunCommit(commit);
  for (;;) {
    ThreadState s = tcb->state.load(std::memory_order_acquire);
    if (s == ThreadState::kRunnable) {
      RunThread(self, tcb);
      continue;
    }
    // Blocked, stopped, or exited: park. (An exited adopted thread parks its
    // kernel thread forever; the process ends only via exit().)
    self->Park();
  }
}

Tcb* AdoptCurrentKernelThread() {
  Runtime& rt = Runtime::Get();
  // Build an LWP wrapper around the calling kernel thread and a bound TCB for it.
  // Heap allocation is fine here: adoption happens once per foreign thread, and
  // deliberately leaks (the TCB must outlive any reference from the package).
  GlobalSchedStats().adoptions.Inc();
  static std::atomic<int> next_adopted_id{10000};
  Lwp* lwp = new Lwp(next_adopted_id.fetch_add(1), Lwp::AdoptCurrentThreadTag{});
  Tcb* tcb = new Tcb;
  tcb->id = rt.AllocateThreadId();
  tcb->is_main = true;
  tcb->bound_lwp = lwp;
  tcb->priority.store(RunQueue::kLevels / 2, std::memory_order_relaxed);
  size_t tls_size = TlsArena::FrozenSize();
  if (tls_size > 0) {
    tcb->tls_block = calloc(1, tls_size);
    SUNMT_CHECK(tcb->tls_block != nullptr);
    tcb->tls_size = tls_size;
  }
  // Side stack for the LWP's dispatch loop (the thread keeps its native stack).
  Stack sched_stack = Stack::AllocateOwned(64 * 1024);
  lwp->sched_ctx.Make(sched_stack.base(), sched_stack.size(), &AdoptedSchedMain);
  // Keep the mapping alive: the TCB is never reclaimed, so park it there.
  tcb->stack = static_cast<Stack&&>(sched_stack);
  tcb->state.store(ThreadState::kRunning, std::memory_order_release);
  lwp->current_thread.store(tcb, std::memory_order_relaxed);
  onproc::Publish(lwp->onproc_slot(), static_cast<uint64_t>(tcb->id));
  rt.RegisterThread(tcb);
  return tcb;
}

}  // namespace

Tcb* CurrentTcb() { return RunningOn(Lwp::Current()); }

Tcb* CurrentTcbOrAdopt() {
  Tcb* tcb = CurrentTcb();
  if (tcb != nullptr) {
    return tcb;
  }
  SUNMT_CHECK(Lwp::Current() == nullptr);  // dispatch contexts must not call in
  return AdoptCurrentKernelThread();
}

void SafePoint() {
  Lwp* lwp = Lwp::Current();
  Tcb* self = RunningOn(lwp);
  if (self == nullptr) {
    return;
  }
  if (self->stop_requested.load(std::memory_order_acquire)) {
    StopSelf();
    lwp = Lwp::Current();  // continued, perhaps on another LWP
  }
  // Time-slice preemption: requeue behind equal-priority peers. Bound threads
  // own their LWP, so the host scheduler handles their fairness — check
  // IsBound() before the exchange so a bound thread never consumes (or acts
  // on) a preempt flag. (The timeslice is not armed on bound LWPs either; this
  // guards against a flag left over from pool dispatches on the same LWP.)
  if (!self->IsBound() &&
      lwp->preempt_pending.exchange(false, std::memory_order_acq_rel)) {
    Runtime& rt = Runtime::Get();
    // Only give up the LWP if it has other work visible without stealing:
    // the local shard (queue + next box) or the shared overflow queue.
    if (rt.queues().HasLocalWork(lwp->sched_shard)) {
      GlobalSchedStats().preemptions.Inc();
      self->preempt_count.fetch_add(1, std::memory_order_relaxed);
      Trace::Record(TraceEvent::kPreempt, self->id, 0);
      SwitchCommit commit{CommitKind::kYield, self, nullptr};
      Deschedule(lwp, self, &commit);  // re-dispatch starts a fresh slice
    }
  }
  if (!self->handling_signal &&
      (self->pending_signals.load(std::memory_order_acquire) &
       ~self->sigmask.load(std::memory_order_acquire)) != 0) {
    DeliverPendingSignals(self);
  }
}

void Yield() {
  SafePoint();
  Lwp* lwp = Lwp::Current();  // after the safe point, which may migrate us
  Tcb* self = RunningOn(lwp);
  if (self == nullptr) {
    return;
  }
  if (self->IsBound()) {
    // A bound thread owns its LWP; yielding is a host-scheduler affair.
    sched_yield();
    return;
  }
  Runtime& rt = Runtime::Get();
  // Fast path: nothing this LWP could run instead (local shard + overflow are
  // empty) — keep running without touching any shared lock.
  if (!rt.queues().HasLocalWork(lwp->sched_shard)) {
    return;
  }
  self->yield_count.fetch_add(1, std::memory_order_relaxed);
  SwitchCommit commit{CommitKind::kYield, self, nullptr};
  Deschedule(lwp, self, &commit);
  SafePoint();
}

void Block(SpinLock* queue_lock) {
  Lwp* lwp = Lwp::Current();
  Tcb* self = RunningOn(lwp);
  SUNMT_CHECK(self != nullptr);
  // Perturbation lands with the sleep-queue lock still held: widens the
  // window where a waker has popped this thread but it has not yet switched.
  inject::Perturb(inject::kSchedBlock);
  if (lockdep::Enabled()) {
    // The dispatcher unlocks queue_lock after the context save, on a stack
    // where CurrentTcb() is null — pop this thread's held entry now so the
    // hand-off doesn't leak a phantom held lock.
    lockdep::OnSpinHandoff(queue_lock);
  }
  SwitchCommit commit{CommitKind::kBlock, self, queue_lock};
  Deschedule(lwp, self, &commit);
  SafePoint();
}

void StopSelf() {
  Lwp* lwp = Lwp::Current();
  Tcb* self = RunningOn(lwp);
  SUNMT_CHECK(self != nullptr);
  SwitchCommit commit{CommitKind::kStop, self, nullptr};
  Deschedule(lwp, self, &commit);
}

void ExitCurrent() {
  Tcb* self = CurrentTcb();
  SUNMT_CHECK(self != nullptr);
  RunTsdDestructors();  // on the exiting thread's stack; may call user code
  SwitchCommit commit{CommitKind::kExit, self, nullptr};
  Deschedule(Lwp::Current(), self, &commit);  // the destructors may have migrated us
  SUNMT_PANIC("exited thread was dispatched again");
}

void Wake(Tcb* tcb) {
  // The waiter is already off its sleep queue but not yet runnable — the
  // hand-off window every timeout/cancel path has to get right.
  inject::Perturb(inject::kSchedWake);
  {
    SpinLockGuard guard(tcb->state_lock);
    SUNMT_DCHECK(tcb->state.load(std::memory_order_relaxed) == ThreadState::kBlocked);
    if (tcb->stop_requested.load(std::memory_order_relaxed)) {
      // Stopped while blocked: thread_continue makes it runnable instead.
      tcb->stop_requested.store(false, std::memory_order_relaxed);
      tcb->state.store(ThreadState::kStopped, std::memory_order_release);
      return;
    }
  }
  MakeRunnable(tcb, ThreadState::kBlocked);
}

bool MakeRunnable(Tcb* tcb, ThreadState from) {
  {
    SpinLockGuard guard(tcb->state_lock);
    if (tcb->state.load(std::memory_order_relaxed) != from) {
      return false;
    }
    GlobalSchedStats().wakes.Inc();
    if (Trace::IsEnabled()) {
      Tcb* waker = CurrentTcb();
      Trace::Record(TraceEvent::kWake, tcb->id, waker != nullptr ? waker->id : 0);
    }
    if (Stats::Enabled()) {
      tcb->runnable_since_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
    }
    tcb->state.store(ThreadState::kRunnable, std::memory_order_release);
    if (tcb->IsBound()) {
      // Kicked under state_lock: the bound thread may run and exit as soon as
      // it reads kRunnable, and its exit takes state_lock before its LWP
      // retires and is reaped, so the LWP outlives this kick.
      tcb->bound_lwp->Unpark();
      return true;
    }
  }
  // Genuine wake: prefer the waker's next box (wake affinity) — unless the
  // injector diverts it to the shared paths so stealing/overflow churn.
  bool affinity = !inject::StealBias(inject::kSchedWake);
  Runtime::Get().EnqueueRunnable(tcb, /*wake_affinity=*/affinity);
  return true;
}

void RunThread(Lwp* lwp, Tcb* tcb) {
  GlobalSchedStats().dispatches.Inc();
  Trace::Record(TraceEvent::kDispatch, tcb->id, static_cast<uint64_t>(lwp->id()));
  if (Stats::Enabled()) {
    // Dispatch latency: wake (or yield requeue) -> first instruction on an LWP.
    int64_t since = tcb->runnable_since_ns.exchange(0, std::memory_order_relaxed);
    if (since != 0) {
      Stats::RecordNs(LatencyStat::kDispatchLatency, MonotonicNowNs() - since);
    }
    // Depth this dispatcher is responsible for: its shard plus the overflow.
    Stats::RecordValue(LatencyStat::kRunQueueDepth,
                       Runtime::Get().queues().LocalDepth(lwp->sched_shard));
  }
  // The LWP assumes the thread's identity: current_thread for itself, the
  // ON-PROC slot for everyone else (mutex spinners, introspection, rlimit).
  lwp->current_thread.store(tcb, std::memory_order_relaxed);
  onproc::Publish(lwp->onproc_slot(), static_cast<uint64_t>(tcb->id));
  if (lwp->sched_shard >= 0) {
    tcb->last_shard = lwp->sched_shard;  // wake affinity for the next block/wake
  }
  {
    SpinLockGuard guard(tcb->state_lock);
    tcb->state.store(ThreadState::kRunning, std::memory_order_release);
  }
  // Bound threads own their LWP and are never package-preempted; arming the
  // timeslice would only leave a stale preempt_pending flag behind.
  if (Lwp::PreemptTimeslice() > 0 && !tcb->IsBound()) {
    lwp->MarkDispatch(ThreadCpuNowNs());
  }
  void* ret = lwp->sched_ctx.SwitchTo(tcb->ctx, tcb);
  lwp->ClearDispatch();
  lwp->current_thread.store(nullptr, std::memory_order_relaxed);
  onproc::Publish(lwp->onproc_slot(), 0);  // back in the dispatch loop: off-proc
  RunCommit(static_cast<SwitchCommit*>(ret));
}

void ThreadTrampoline(void* arg) {
  Tcb* self = static_cast<Tcb*>(arg);
  SafePoint();
  self->entry(self->arg);
  ExitCurrent();
}

void PoolLwpMain(Lwp* self, void* arg) {
  auto* rt = static_cast<Runtime*>(arg);
  int shard = self->sched_shard;
  for (;;) {
    if (self->retire.load(std::memory_order_acquire)) {
      break;
    }
    // Dispatch order: own next box / shard queue / overflow, then one
    // nonblocking netpoll (its wakes land in this LWP's box), then steal from
    // the other shards. Only a dispatcher with no local work pays for either.
    Tcb* next = rt->queues().PopLocal(shard);
    if (next == nullptr && rt->PollIfUnowned()) {
      next = rt->queues().PopLocal(shard);
    }
    if (next == nullptr) {
      next = rt->queues().Steal(shard);
    }
    if (next != nullptr) {
      // Chain the wake protocol: if work remains while LWPs are parked, wake
      // one more before burying ourselves in RunThread.
      rt->MaybeWakeMore();
      RunThread(self, next);
      continue;
    }
    // Idle protocol: register, re-check for work that raced in, then wait.
    // The recheck deliberately ignores other shards' next boxes: their owner
    // LWPs drain them (the watchdog backstops a non-dispatching owner), and
    // bouncing here to raid a box would just migrate an affine wake. While
    // threads are parked on fds, one idle LWP waits in epoll_wait instead of
    // on its futex: the poll owner, woken by readiness or a NotifyWork kick.
    bool poll_owner = rt->EnterIdle(self);
    if (rt->queues().HasLocalWork(shard) || rt->queues().HasStealableWork() ||
        self->retire.load(std::memory_order_acquire)) {
      rt->ExitIdle(self);
      continue;
    }
    if (poll_owner) {
      rt->PollAsOwner();
    } else {
      self->Park();
    }
    rt->ExitIdle(self);
  }
  rt->RetireLwp(self, /*was_pool=*/true);
}

void BoundLwpMain(Lwp* self, void* arg) {
  Tcb* tcb = static_cast<Tcb*>(arg);
  for (;;) {
    if (self->retire.load(std::memory_order_acquire)) {
      break;  // tcb may already be reclaimed; do not touch it
    }
    if (tcb->state.load(std::memory_order_acquire) == ThreadState::kRunnable) {
      RunThread(self, tcb);
      continue;
    }
    self->Park();
  }
  Runtime::Get().RetireLwp(self, /*was_pool=*/false);
}

}  // namespace sched
}  // namespace sunmt
