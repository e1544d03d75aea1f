#include "src/core/runtime.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/core/scheduler.h"
#include "src/core/tls_arena.h"
#include "src/core/trace.h"
#include "src/net/net.h"
#include "src/net/poller.h"
#include "src/pthread/pthread_compat.h"
#include "src/rlimit/rlimit.h"
#include "src/signal/signal.h"
#include "src/timer/timer.h"
#include "src/tls/tsd.h"
#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/futex.h"
#include "src/util/object_cache.h"

namespace sunmt {
namespace {

RuntimeConfig g_pending_config;
std::atomic<bool> g_initialized{false};
std::atomic<Runtime*> g_runtime{nullptr};
SpinLock g_runtime_create_lock;

int OnlineCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Watchdog period: the simulated kernel's SIGWAITING latency, and the
// netpoll backstop while no LWP owns the poll.
constexpr int64_t kWatchdogPeriodNs = 500 * 1000;

// The service loop's futex word, bumped by WakeServiceBy, and its published
// wheel horizon.
struct alignas(64) ServiceWake {
  std::atomic<uint32_t> word{0};
  std::atomic<int64_t> sweep_horizon_ns{INT64_MAX};
};
ServiceWake g_service;

// The process's one service thread. Each pass runs whichever duties are due,
// then sleeps until the earliest next deadline or a sweep request. It sweeps
// the wheel when its next event is due or a request arrived since the last
// pass; a request landing during a pass bumps the word it is about to wait
// on, so the wait returns at once and the next pass sweeps again. Until the
// first timer is armed a sweep finds no wheel and builds none.
void ServiceMain(Runtime* rt) {
  uint32_t seen = g_service.word.load(std::memory_order_acquire);
  int64_t next_watchdog = MonotonicNowNs() + kWatchdogPeriodNs;
  int64_t next_clock = INT64_MAX;  // the clock is stopped
  int64_t last_clock = 0;
  int64_t next_sweep = 0;  // sweep on the first pass: timers may predate us
  for (;;) {
    uint32_t word = g_service.word.load(std::memory_order_acquire);
    int64_t now = MonotonicNowNs();
    if (now >= next_watchdog) {
      rt->WatchdogTick();
      // A full period after the tick's work, as the watchdog always slept.
      next_watchdog = MonotonicNowNs() + kWatchdogPeriodNs;
    }
    if (!LwpRegistry::ClockNeeded() && !CpuLimitArmed()) {
      next_clock = INT64_MAX;
    } else if (next_clock == INT64_MAX) {
      last_clock = now;  // (re)start: the first tick is one period away
      next_clock = now + LwpRegistry::kClockTickNs;
    } else if (now >= next_clock) {
      LwpRegistry::ClockTick(now - last_clock);
      CheckCpuLimit();
      last_clock = now;
      next_clock = now + LwpRegistry::kClockTickNs;
    }
    if (word != seen || now >= next_sweep) {
      g_service.sweep_horizon_ns.store(INT64_MAX, std::memory_order_release);
      next_sweep = SweepTimerWheel(now);
      g_service.sweep_horizon_ns.store(next_sweep, std::memory_order_release);
    }
    seen = word;
    int64_t timeout =
        std::min({next_watchdog, next_clock, next_sweep}) - MonotonicNowNs();
    if (timeout > 0) {
      FutexWait(&g_service.word, word, /*shared=*/false, timeout);
    }
  }
}

}  // namespace

SchedStats& GlobalSchedStats() {
  static SchedStats* stats = new SchedStats;
  return *stats;
}

Runtime& Runtime::Get() {
  Runtime* rt = g_runtime.load(std::memory_order_acquire);
  if (rt != nullptr) {
    return *rt;
  }
  SpinLockGuard guard(g_runtime_create_lock);
  rt = g_runtime.load(std::memory_order_acquire);
  if (rt == nullptr) {
    rt = new Runtime();  // leaked: the runtime outlives all threads
    g_runtime.store(rt, std::memory_order_release);
  }
  return *rt;
}

void Runtime::ResetAfterFork() {
  // Called in a fork1() child, on its only kernel thread: the parent's LWP
  // kernel threads do not exist in this process, so the old Runtime (and every
  // TCB it tracked) is abandoned and a fresh one is built lazily. The calling
  // thread re-adopts on next use.
  //
  // Package-internal state may have been copied mid-mutation (the paper's
  // fork1 hazard, applied to the library itself). This is the one list of
  // repairs, in the order they must run: stale lock images are Reset(), no
  // repair arms a timer or builds the runtime, and a module the process never
  // used gets nothing built. Lockdep goes first (with the detector on, every
  // later acquire runs its hooks), then the LWP registry and ON-PROC table,
  // so no repair sees the parent's LWPs.
  lockdep::ResetAfterFork();
  Lwp::DropCurrentAfterFork();
  TimerResetAfterFork();
  NetPoller::ResetAfterFork();
  SignalResetAfterFork();
  TsdResetAfterFork();
  PthreadResetAfterFork();
  RlimitResetAfterFork();
  ObjectCacheResetAfterForkAll();
  TlsArena::ResetAfterFork();
  g_runtime_create_lock.Reset();
  // The service thread did not survive the fork; the rebuilt runtime starts
  // its own, which sweeps the (repaired) wheel on its first pass.
  g_initialized.store(false, std::memory_order_release);
  g_runtime.store(nullptr, std::memory_order_release);
}

bool Runtime::IsInitialized() { return g_initialized.load(std::memory_order_acquire); }

void Runtime::Configure(const RuntimeConfig& config) {
  SUNMT_CHECK(!IsInitialized());
  g_pending_config = config;
}

namespace {

// Observability switches, honored once at runtime initialization. They have
// no Configure() equivalent — code can always call Stats::Enable()/
// Trace::Enable() directly.
void ApplyObservabilityEnv() {
  const char* env;
  if ((env = getenv("SUNMT_STATS")) != nullptr && env[0] == '1') {
    Stats::Enable();
  }
  if ((env = getenv("SUNMT_TRACE")) != nullptr && !Trace::IsEnabled()) {
    int capacity = atoi(env);
    if (capacity > 0) {
      Trace::Enable(static_cast<size_t>(capacity));
    }
  }
}

}  // namespace

Runtime::Runtime() : max_pool_lwps_(std::max(64, 4 * OnlineCpus())) {
  config_ = g_pending_config;
  ApplyObservabilityEnv();
  if (config_.initial_pool_lwps <= 0) {
    config_.initial_pool_lwps = OnlineCpus();
  }
  queues_.Init(max_pool_lwps_);
  g_initialized.store(true, std::memory_order_release);
  if (config_.preempt_timeslice_ns > 0) {
    Lwp::SetPreemptTimeslice(config_.preempt_timeslice_ns);  // keeps the clock on
  }
  {
    SpinLockGuard guard(pool_lock_);
    for (int i = 0; i < config_.initial_pool_lwps; ++i) {
      SpawnPoolLwpLocked();
    }
  }
  std::thread(ServiceMain, this).detach();
}

void Runtime::SpawnPoolLwpLocked() {
  Lwp* lwp = new Lwp(next_lwp_id_.fetch_add(1, std::memory_order_relaxed));
  lwp->pool = this;
  lwp->sched_shard = queues_.PickSpawnShard();
  queues_.AttachLwp(lwp->sched_shard);
  pool_lwps_.push_back(lwp);
  pool_size_.fetch_add(1, std::memory_order_release);
  lwp->Start(&sched::PoolLwpMain, this);
}

void Runtime::GrowPool(int delta) {
  SpinLockGuard guard(pool_lock_);
  for (int i = 0; i < delta && pool_size() < max_pool_lwps_; ++i) {
    SpawnPoolLwpLocked();
  }
}

int Runtime::SetConcurrency(int n) {
  SUNMT_CHECK(n >= 0);
  if (n == 0) {
    return 0;  // keep the current pool; SIGWAITING growth is auto_grow's call
  }
  SpinLockGuard guard(pool_lock_);
  n = std::min(n, max_pool_lwps_);
  while (ActivePoolCountLocked() < n) {
    SpawnPoolLwpLocked();
  }
  ShrinkPoolLocked(n);
  return 0;
}

int Runtime::ActivePoolCountLocked() const {
  int active = 0;
  for (Lwp* lwp : pool_lwps_) {
    if (!lwp->retire.load(std::memory_order_acquire)) {
      ++active;
    }
  }
  return active;
}

void Runtime::ShrinkPoolLocked(int target) {
  target = std::max(target, 1);  // keep at least one LWP serving unbound threads
  int excess = ActivePoolCountLocked() - target;
  for (Lwp* lwp : pool_lwps_) {
    if (excess <= 0) {
      break;
    }
    if (!lwp->retire.load(std::memory_order_acquire)) {
      lwp->retire.store(true, std::memory_order_release);
      lwp->Unpark();
      {
        // The retiring LWP may be the poll owner, parked in epoll_wait rather
        // than on its futex.
        SpinLockGuard idle_guard(idle_lock_);
        if (poll_owner_.load(std::memory_order_relaxed) == lwp) {
          KickPollOwnerLocked();
        }
      }
      --excess;
    }
  }
}

void Runtime::NotifyWork() {
  // Fast path: nobody is idle, nothing to wake (every busy LWP rechecks the
  // queues before parking, so the enqueue is already visible to them).
  if (idle_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  // Single-waker throttle: if a wake is already in flight, this transition
  // rides on it — the woken LWP chains another wake (MaybeWakeMore) if it
  // finds more work than it can run. This is what stops a burst of N wakes
  // from futex-thundering every parked LWP.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    GlobalSchedStats().notify_throttled.Inc();
    return;
  }
  bool woke = false;
  {
    SpinLockGuard guard(idle_lock_);
    Lwp* idle = idle_lwps_.PopFront();
    if (idle != nullptr) {
      idle_count_.fetch_sub(1, std::memory_order_release);
      // Unpark under the lock: the popped LWP cannot get through ExitIdle,
      // and so cannot retire and be reaped, until this call has returned.
      idle->Unpark();
      woke = true;
    } else {
      // No futex-parked LWP left: the poll owner is the last idle one.
      woke = KickPollOwnerLocked();
    }
  }
  if (woke) {
    GlobalSchedStats().notify_wakes.Inc();
  } else {
    // The idle LWP left on its own between our check and the pop; nothing to
    // wake, so clear the flag instead of leaving a phantom wake in flight.
    wake_pending_.store(false, std::memory_order_release);
  }
}

bool Runtime::KickPollOwnerLocked() {
  // The owner itself runs NotifyWork while it delivers its own poll's wakes;
  // it is about to look for work anyway.
  Lwp* owner = poll_owner_.load(std::memory_order_relaxed);
  if (owner == nullptr || owner == Lwp::Current() || poll_kicked_) {
    return false;
  }
  poll_kicked_ = true;
  NetPoller::Get().Kick();
  return true;
}

void Runtime::MaybeWakeMore() {
  if (idle_count_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  // Chain a wake only for backlog another dispatcher could take — shard
  // queues and overflow, not next boxes (those belong to their owner LWP;
  // waking someone for a box just makes it race the owner).
  if (queues_.HasStealableWork()) {
    NotifyWork();
  }
}

bool Runtime::EnterIdle(Lwp* lwp) {
  SpinLockGuard guard(idle_lock_);
  // seq_cst pairs with a bound parker (parked count up, then HandOffPoll reads
  // idle_count_): either it sees this LWP idle, or this LWP sees the park.
  idle_count_.fetch_add(1, std::memory_order_seq_cst);
  if (poll_owner_.load(std::memory_order_relaxed) == nullptr &&
      net_parked_count() > 0) {
    poll_owner_.store(lwp, std::memory_order_seq_cst);
    return true;
  }
  idle_lwps_.PushBack(lwp);
  return false;
}

void Runtime::ExitIdle(Lwp* lwp) {
  {
    SpinLockGuard guard(idle_lock_);
    if (poll_owner_.load(std::memory_order_relaxed) == lwp) {
      poll_owner_.store(nullptr, std::memory_order_release);
      poll_kicked_ = false;
      idle_count_.fetch_sub(1, std::memory_order_release);
    } else if (idle_lwps_.TryRemove(lwp)) {
      idle_count_.fetch_sub(1, std::memory_order_release);
    }
  }
  // This LWP is awake and about to look for work: it absorbs any wake that
  // was in flight to it, so further NotifyWork calls may wake someone else.
  wake_pending_.store(false, std::memory_order_release);
}

void Runtime::WakeServiceBy(int64_t deadline_ns) {
  // An arm the running sweep missed was inserted after the sweep released
  // that shard's lock, so it reads "sweeping" or the horizon computed
  // without it: it is swept again either way.
  if (deadline_ns < g_service.sweep_horizon_ns.load(std::memory_order_acquire)) {
    g_service.word.fetch_add(1, std::memory_order_release);
    FutexWake(&g_service.word, 1);
  }
}

void Runtime::PollAsOwner() { NetPoller::Get().Poll(/*timeout_ms=*/-1); }

bool Runtime::PollIfUnowned() {
  if (poll_owner_.load(std::memory_order_acquire) != nullptr ||
      net_parked_count() == 0) {
    return false;
  }
  return NetPoller::Get().Poll(/*timeout_ms=*/0) > 0;
}

void Runtime::HandOffPoll() {
  if (poll_owner_.load(std::memory_order_seq_cst) != nullptr ||
      idle_count_.load(std::memory_order_seq_cst) == 0 || net_parked_count() == 0) {
    return;  // owned, every LWP is busy (and sees the park when idle), or moot
  }
  SpinLockGuard guard(idle_lock_);
  if (poll_owner_.load(std::memory_order_relaxed) != nullptr) {
    return;
  }
  Lwp* idle = idle_lwps_.PopFront();
  if (idle != nullptr) {
    idle_count_.fetch_sub(1, std::memory_order_release);
    GlobalSchedStats().notify_wakes.Inc();
    idle->Unpark();  // under the lock, as in NotifyWork
  }
}

void Runtime::EnqueueRunnable(Tcb* tcb, bool wake_affinity) {
  int waker_shard = -1;
  Lwp* cur = Lwp::Current();
  if (cur != nullptr && cur->pool == this) {
    waker_shard = cur->sched_shard;
  }
  if (queues_.Enqueue(tcb, waker_shard, wake_affinity)) {
    NotifyWork();
  }
}

void Runtime::RequeueFromDispatch(Tcb* tcb) {
  Lwp* cur = Lwp::Current();
  int shard = (cur != nullptr && cur->pool == this) ? cur->sched_shard : -1;
  queues_.Enqueue(tcb, shard, /*wake_affinity=*/false);
}

Lwp* Runtime::SpawnBoundLwp(Tcb* tcb) {
  Lwp* lwp = new Lwp(next_lwp_id_.fetch_add(1, std::memory_order_relaxed));
  tcb->bound_lwp = lwp;
  lwp->Start(&sched::BoundLwpMain, tcb);
  return lwp;
}

void Runtime::RetireLwp(Lwp* lwp, bool was_pool) {
  if (was_pool) {
    {
      SpinLockGuard guard(pool_lock_);
      auto it = std::find(pool_lwps_.begin(), pool_lwps_.end(), lwp);
      if (it != pool_lwps_.end()) {
        pool_lwps_.erase(it);
        pool_size_.fetch_sub(1, std::memory_order_release);
      }
    }
    ExitIdle(lwp);
    // Release this LWP's shard; the last LWP out drains any queued threads
    // into the overflow queue so nothing is stranded in an unserved shard.
    if (lwp->sched_shard >= 0) {
      queues_.DetachLwp(lwp->sched_shard);
      lwp->sched_shard = -1;
    }
    // If work remains queued, make sure someone else picks it up; if threads
    // are parked on fds and nobody polls (this LWP may have been the owner),
    // hand the poll to an idle LWP.
    if (!queues_.Empty()) {
      NotifyWork();
    }
    HandOffPoll();
  }
  SpinLockGuard guard(dead_lock_);
  dead_lwps_.push_back(lwp);
}

void Runtime::ReapDeadLwps() {
  std::vector<Lwp*> dead;
  {
    SpinLockGuard guard(dead_lock_);
    dead.swap(dead_lwps_);
  }
  std::vector<Lwp*> not_ready;
  for (Lwp* lwp : dead) {
    if (lwp->Finished()) {
      lwp->Join();
      delete lwp;
    } else {
      not_ready.push_back(lwp);
    }
  }
  if (!not_ready.empty()) {
    SpinLockGuard guard(dead_lock_);
    for (Lwp* lwp : not_ready) {
      dead_lwps_.push_back(lwp);
    }
  }
}

void Runtime::RegisterThread(Tcb* tcb) { registry_.Register(tcb); }

void Runtime::UnregisterThread(Tcb* tcb) { registry_.Unregister(tcb); }

size_t Runtime::ThreadCount() { return registry_.Count(); }

void Runtime::ReclaimTcb(Tcb* tcb) {
  Stack stack = static_cast<Stack&&>(tcb->stack);
  tcb->~Tcb();
#if defined(__SANITIZE_ADDRESS__)
  // An exited thread never unwinds its frames, so ASan's shadow still marks
  // their redzones poisoned; the stack's next user (a recycled thread, or the
  // application that supplied it) would trip over them.
  __asan_unpoison_memory_region(stack.base(), stack.size());
#endif
  if (stack.owned()) {
    StackCache::Recycle(static_cast<Stack&&>(stack));
  }
  // Caller-supplied stacks are reclaimed by the application (after thread_wait
  // for THREAD_WAIT threads, per the paper).
}

void Runtime::OnThreadExit(Tcb* tcb) {
  Lwp* bound = tcb->bound_lwp;
  wait_lock_.Lock();
  UnregisterThread(tcb);
  if (tcb->waitable) {
    {
      SpinLockGuard guard(tcb->state_lock);
      tcb->state.store(ThreadState::kZombie, std::memory_order_release);
    }
    zombies_.PushBack(tcb);
    WakeOneWaiterLocked(tcb->id);
    wait_lock_.Unlock();
  } else {
    {
      SpinLockGuard guard(tcb->state_lock);
      tcb->state.store(ThreadState::kDead, std::memory_order_release);
    }
    wait_lock_.Unlock();
    if (!tcb->is_main) {
      ReclaimTcb(tcb);
    }
  }
  if (bound != nullptr) {
    bound->retire.store(true, std::memory_order_release);
    bound->Unpark();
  }
}

void Runtime::WakeOneWaiterLocked(ThreadId exited_id) {
  Tcb* waiter = waiters_.PopIf([exited_id](Tcb* w) {
    return w->waiting_for == exited_id || w->waiting_for == kInvalidThreadId;
  });
  if (waiter != nullptr) {
    sched::Wake(waiter);
  }
}

ThreadId Runtime::Wait(ThreadId id) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  if (id == self->id) {
    return kInvalidThreadId;  // error: waiting for the current thread
  }
  wait_lock_.Lock();
  for (;;) {
    Tcb* zombie = zombies_.PopIf(
        [id](Tcb* z) { return id == kInvalidThreadId || z->id == id; });
    if (zombie != nullptr) {
      ThreadId exited = zombie->id;
      wait_lock_.Unlock();
      ReclaimTcb(zombie);
      return exited;
    }
    if (id != kInvalidThreadId) {
      // The target must exist, be waitable, and have no other waiter. The
      // lookup touches exactly one registry shard (taken inside wait_lock_,
      // the same order OnThreadExit uses for unregistration).
      bool ok = false;
      bool already_waited = false;
      registry_.WithThread(id, [&](Tcb* t) { ok = t->waitable; });
      waiters_.ForEach([&](Tcb* w) {
        if (w->waiting_for == id) {
          already_waited = true;
        }
      });
      if (!ok || already_waited) {
        wait_lock_.Unlock();
        return kInvalidThreadId;
      }
    } else {
      // Any-wait: error if nothing waitable exists (would block forever).
      bool any = registry_.AnyThread(
          [self](Tcb* t) { return t->waitable && t != self; });
      if (!any) {
        wait_lock_.Unlock();
        return kInvalidThreadId;
      }
    }
    self->waiting_for = id;
    waiters_.PushBack(self);
    sched::Block(&wait_lock_);
    wait_lock_.Lock();
  }
}

bool Runtime::AllPoolLwpsIndefinitelyBlocked() {
  for (Lwp* lwp : pool_lwps_) {
    if (lwp->retire.load(std::memory_order_acquire)) {
      continue;
    }
    if (!lwp->InIndefiniteWait()) {
      return false;
    }
  }
  return true;
}

void Runtime::WatchdogTick() {
  ReapDeadLwps();
  // Netpoll backstop: while no LWP owns the blocking poll and every LWP keeps
  // running threads, no dispatch loop reaches its timeout-0 poll.
  PollIfUnowned();
  if (queues_.Empty()) {
    return;
  }
  // Backstop for the no-wake next-box placement: if a boxed (or any queued)
  // thread is still waiting a whole watchdog period later while LWPs sit
  // parked — e.g. its owner LWP is running a thread that never reaches a
  // dispatch — wake one. The woken LWP raids the box via Steal.
  if (idle_count_.load(std::memory_order_acquire) > 0) {
    NotifyWork();
  }
  if (!config_.auto_grow) {
    return;
  }
  SpinLockGuard guard(pool_lock_);
  if (pool_size() >= max_pool_lwps_) {
    return;
  }
  if (pool_lwps_.empty() || !AllPoolLwpsIndefinitelyBlocked()) {
    return;
  }
  // All LWPs are "waiting for some indefinite, external event" while runnable
  // threads exist: this is the SIGWAITING condition. Grow the pool.
  sigwaiting_count_.fetch_add(1, std::memory_order_relaxed);
  Trace::Record(TraceEvent::kSigwaiting, 0, static_cast<uint64_t>(pool_size() + 1));
  if (raise_sigwaiting_.load(std::memory_order_relaxed)) {
    signal_raise_process(SIG_WAITING);
  }
  SpawnPoolLwpLocked();
}

}  // namespace sunmt
