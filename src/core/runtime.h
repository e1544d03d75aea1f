// Process-wide state of the threads package: the LWP pool, the run queue, the
// thread registry, thread_wait bookkeeping, and the service loop.
//
// One Runtime exists per process ("the process is the unit of work; threads are
// resources of the process"). It is created lazily on first use and intentionally
// never destroyed: threads may outlive main(), and LWPs park rather than exit.
//
// The service loop is the process's one service thread: a plain kernel thread,
// outside the LWP registry, that sleeps on one futex word until the earliest of
// the SIGWAITING watchdog tick, the LWP clock tick (while the clock or a CPU
// limit needs it; the CPU-limit check rides the tick) and the timer wheel's
// next event.

#ifndef SUNMT_SRC_CORE_RUNTIME_H_
#define SUNMT_SRC_CORE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/run_queue.h"
#include "src/core/tcb.h"
#include "src/core/thread_registry.h"
#include "src/lwp/lwp.h"
#include "src/stats/stats.h"
#include "src/util/intrusive_list.h"
#include "src/util/spinlock.h"

namespace sunmt {

// Process-wide scheduling counters. Sharded per LWP so the hot scheduler paths
// never contend on a counter cache line; read via .Load() for introspection
// and tests.
struct SchedStats {
  ShardedCounter dispatches;       // thread placed onto an LWP
  ShardedCounter yields;           // voluntary yield switches
  ShardedCounter preemptions;      // timeslice-forced yields
  ShardedCounter blocks;           // thread blocked on a sleep queue
  ShardedCounter wakes;            // blocked thread made runnable
  ShardedCounter threads_created;
  ShardedCounter threads_exited;
  ShardedCounter adoptions;        // foreign kernel threads adopted
  ShardedCounter net_parks;        // threads parked on fd readiness (src/net)
  ShardedCounter net_wakes;        // readiness/cancel wakes of parked threads
  ShardedCounter notify_wakes;     // NotifyWork unparked an idle LWP
  ShardedCounter notify_throttled; // NotifyWork suppressed by the pending flag
};

SchedStats& GlobalSchedStats();

struct RuntimeConfig {
  // Pool LWPs created at initialization. 0 = one per online CPU.
  int initial_pool_lwps = 0;
  // Grow the pool when all pool LWPs block in indefinite kernel waits while
  // runnable threads exist (the library's SIGWAITING response). Matches the
  // paper: "the threads package can use the receipt of SIGWAITING to cause
  // extra LWPs to be created as required to avoid deadlock."
  bool auto_grow = true;
  // Time-slice for unbound threads, enforced at scheduling safe points by the
  // clock tick (0 disables). Purely cooperative threads that never call into
  // the package cannot be preempted — documented limitation of a user-level
  // scheduler without kernel upcalls.
  int64_t preempt_timeslice_ns = 0;
};

class Runtime {
 public:
  // Returns the process runtime, initializing it on first call.
  static Runtime& Get();

  static bool IsInitialized();

  // Overrides the configuration; must be called before the first Get().
  static void Configure(const RuntimeConfig& config);

  // fork1() child-side reset, on the child's only kernel thread: the one list
  // of fork1 repairs. Calls each module's repair of state fork may have copied
  // mid-mutation (e.g. a spinlock held by a parent thread that does not exist
  // in the child), in order, then abandons the inherited runtime (whose LWPs
  // do not exist in the child) so a fresh one is built on next use. See
  // src/ipc/fork1.h.
  static void ResetAfterFork();

  // ---- Run queues & pool --------------------------------------------------
  ShardedRunQueue& queues() { return queues_; }

  // Places a runnable unbound thread and wakes a dispatcher if one is idle.
  // wake_affinity: true for genuine wakes (the thread prefers the waker's
  // next box), false for requeues (yield/preempt/setprio) which go to the
  // back of a shard queue.
  void EnqueueRunnable(Tcb* tcb, bool wake_affinity);

  // Requeue from an LWP dispatch loop (yield/preempt commit). Never wakes:
  // the calling loop pops next immediately and chains wakes for any backlog
  // via MaybeWakeMore.
  void RequeueFromDispatch(Tcb* tcb);

  // thread_setconcurrency(): n > 0 sets the pool LWP count now (bound LWPs
  // excluded, per the paper); n == 0 leaves the pool as it is. SIGWAITING
  // growth applies either way, as RuntimeConfig::auto_grow says. Returns 0.
  int SetConcurrency(int n);

  // Adds `delta` pool LWPs (THREAD_NEW_LWP / SIGWAITING growth).
  void GrowPool(int delta);

  int pool_size() const { return pool_size_.load(std::memory_order_acquire); }
  // Hard cap on pool LWPs, max(64, 4 * online CPUs): SIGWAITING growth,
  // GrowPool and thread_setconcurrency stop here.
  int max_pool_size() const { return max_pool_lwps_; }
  uint64_t sigwaiting_count() const {
    return sigwaiting_count_.load(std::memory_order_relaxed);
  }

  // Unparks at most one idle pool LWP per work->idle state transition: a
  // burst of N enqueues wakes one LWP (the rest are suppressed by the
  // wake-pending flag); the woken LWP chains further wakes if it finds more
  // work than it can run (see MaybeWakeMore). A futex-parked LWP is preferred;
  // only when none is left is the poll owner kicked out of epoll_wait. Cheap
  // when nobody is idle — one relaxed load, no lock.
  void NotifyWork();

  // Called by a dispatcher that just took work while more remains queued:
  // wakes another idle LWP so a burst drains with one wake per dispatcher
  // instead of one wake per enqueue.
  void MaybeWakeMore();

  // Idle protocol for pool LWPs (see PoolLwpMain). EnterIdle returns true if
  // the LWP took the poll-owner slot instead of joining the futex-parked idle
  // list: threads are parked on fds and no other LWP owns the poll. The owner
  // then waits in PollAsOwner instead of Park. Either way ExitIdle undoes it.
  bool EnterIdle(Lwp* lwp);
  void ExitIdle(Lwp* lwp);

  // ---- Netpoll ownership ----------------------------------------------------
  // The pool polls the netpoller only while threads are parked on fds
  // (net_parked_count() > 0), so a process that registers no fd never builds
  // one. See docs/internals.md §7.

  // The owner's wait: epoll_wait with no timeout. The threads it wakes land in
  // the owner's own next box (wake affinity), so it runs them itself. This is
  // an idle LWP, not a thread in a kernel call: it is not an indefinite wait
  // for SIGWAITING.
  void PollAsOwner();

  // One timeout-0 poll, if threads are parked on fds and no LWP owns the
  // blocking poll. A pool LWP out of local work calls it before stealing; the
  // watchdog calls it as the backstop when every LWP is busy. Returns true if
  // it woke threads.
  bool PollIfUnowned();

  // For a bound thread about to park on an fd (its LWP never reaches the
  // pool's idle path) and a retiring LWP: if threads are parked on fds and
  // nobody owns the poll, an idle pool LWP is woken to take it.
  void HandOffPoll();

  // ---- Timer wheel ------------------------------------------------------------
  // Called after arming a timer due at `deadline_ns`: wakes the service loop
  // to sweep the wheel if the deadline beats the loop's published horizon
  // (its next sweep; INT64_MAX while a sweep runs). Lock-free and static:
  // timers may be armed before the runtime exists.
  static void WakeServiceBy(int64_t deadline_ns);

  // ---- LWP lifecycle -------------------------------------------------------
  // Spawns a dedicated LWP bound to `tcb` (publishes tcb->bound_lwp first).
  Lwp* SpawnBoundLwp(Tcb* tcb);

  // Called by an LWP main loop just before returning; the watchdog reaps it.
  void RetireLwp(Lwp* lwp, bool was_pool);

  // Joins and deletes finished LWPs. Called by the watchdog and at barriers.
  void ReapDeadLwps();

  // ---- Thread registry -------------------------------------------------------
  void RegisterThread(Tcb* tcb);
  void UnregisterThread(Tcb* tcb);
  size_t ThreadCount();
  ThreadId AllocateThreadId() {
    return next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Runs `fn(tcb)` with the owning registry-shard lock held on the thread with
  // `id`; returns false if no such thread. Keeps lookups race-free without
  // exposing raw TCBs, and touches exactly one shard.
  template <typename Fn>
  bool WithThread(ThreadId id, Fn&& fn) {
    return registry_.WithThread(id, static_cast<Fn&&>(fn));
  }

  // Visits threads shard by shard (best-effort snapshot; see thread_registry.h).
  template <typename Fn>
  void ForEachThread(Fn&& fn) {
    registry_.ForEach(static_cast<Fn&&>(fn));
  }

  // Early-exit existence test over the registry.
  template <typename Pred>
  bool AnyThread(Pred&& pred) {
    return registry_.AnyThread(static_cast<Pred&&>(pred));
  }

  // ---- thread_exit / thread_wait ----------------------------------------------
  // Final bookkeeping for an exited thread; runs on the LWP dispatch stack.
  void OnThreadExit(Tcb* tcb);

  // thread_wait(): blocks until thread `id` (or any THREAD_WAIT thread if id==0)
  // exits; returns the exited id, or kInvalidThreadId on error.
  ThreadId Wait(ThreadId id);

  // ---- Watchdog -----------------------------------------------------------------
  // One SIGWAITING evaluation + dead-LWP reap; normally called by the service
  // loop, exposed for deterministic tests.
  void WatchdogTick();

  // From now on each SIGWAITING response also raises SIG_WAITING to the
  // process, before it grows the pool (signal_enable_sigwaiting()).
  void RaiseSigwaitingSignal() {
    raise_sigwaiting_.store(true, std::memory_order_relaxed);
  }

  // The pool LWP holding the blocking netpoll (see EnterIdle), or nullptr.
  const Lwp* poll_owner() const { return poll_owner_.load(std::memory_order_acquire); }

 private:
  Runtime();

  void SpawnPoolLwpLocked();
  void ShrinkPoolLocked(int target);
  int ActivePoolCountLocked() const;
  bool AllPoolLwpsIndefinitelyBlocked();
  bool KickPollOwnerLocked();
  void ReclaimTcb(Tcb* tcb);
  void WakeOneWaiterLocked(ThreadId exited_id);

  RuntimeConfig config_;
  const int max_pool_lwps_;
  ShardedRunQueue queues_;

  mutable SpinLock pool_lock_;
  std::vector<Lwp*> pool_lwps_;
  std::atomic<int> pool_size_{0};
  std::atomic<int> next_lwp_id_{1};

  SpinLock idle_lock_;
  IntrusiveList<Lwp, &Lwp::pool_node> idle_lwps_;
  // Fast-path gate for NotifyWork: number of idle LWPs, the ones on
  // idle_lwps_ plus the poll owner (maintained under idle_lock_, read
  // lock-free), and the single-waker throttle flag.
  std::atomic<int> idle_count_{0};
  std::atomic<bool> wake_pending_{false};
  // The idle LWP blocked (or about to block) in the netpoller's epoll_wait.
  // Written under idle_lock_; read lock-free by PollIfUnowned/HandOffPoll.
  std::atomic<Lwp*> poll_owner_{nullptr};
  bool poll_kicked_ = false;  // a kick is in flight to poll_owner_ (idle_lock_)

  ThreadRegistry registry_;
  std::atomic<ThreadId> next_thread_id_{1};  // the initial (adopted) thread gets 1

  SpinLock wait_lock_;
  SleepQueue zombies_;
  SleepQueue waiters_;

  SpinLock dead_lock_;
  std::vector<Lwp*> dead_lwps_;

  std::atomic<uint64_t> sigwaiting_count_{0};
  std::atomic<bool> raise_sigwaiting_{false};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_RUNTIME_H_
