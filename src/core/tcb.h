// Thread control block (TCB).
//
// "Threads are actually represented by data structures in the address space of a
// program." The TCB carries exactly the per-thread state the paper enumerates —
// thread ID, register state (the Context slot), stack, signal mask, priority, and
// thread-local storage — plus the queue links and bookkeeping the user-level
// scheduler needs. The TCB is carved out of the *top of the thread's own stack*
// (together with the TLS block), so creating a thread performs no heap allocation:
// one of the paper's explicit design principles. A TCB names no LWP (a bound
// thread's aside): which thread an LWP runs is recorded once, in the LWP's
// ON-PROC slot (src/lwp/onproc.h).

#ifndef SUNMT_SRC_CORE_TCB_H_
#define SUNMT_SRC_CORE_TCB_H_

#include <atomic>
#include <cstdint>

#include "src/arch/context.h"
#include "src/arch/stack.h"
#include "src/core/thread.h"
#include "src/debug/lockdep.h"
#include "src/util/intrusive_list.h"
#include "src/util/spinlock.h"

namespace sunmt {

class Lwp;

using ThreadId = thread_id_t;

// Sentinels for Tcb::queued_where (see run_queue.h for the full tag space).
inline constexpr int kTcbNotQueued = -1;  // not in any dispatch container
inline constexpr int kTcbInTransit = -2;  // popped by a stealer, being re-filed

enum class ThreadState : uint8_t {
  kEmbryo,    // being constructed, not yet dispatchable
  kRunnable,  // on the run queue (unbound) or wake-pending (bound)
  kRunning,   // executing on an LWP
  kBlocked,   // on a sleep queue (sync object, thread_wait, ...)
  kStopped,   // thread_stop'ed / created with THREAD_STOP; not dispatchable
  kZombie,    // exited, awaiting thread_wait (THREAD_WAIT threads only)
  kDead,      // exited and reclaimed
};

struct Tcb {
  using EntryFn = void (*)(void*);

  // ---- Identity & user entry ----------------------------------------------
  ThreadId id = kInvalidThreadId;
  EntryFn entry = nullptr;
  void* arg = nullptr;
  char name[32] = {};  // optional label for the debugger story (thread_setname)

  // ---- Register state & stack ---------------------------------------------
  Context ctx;
  Stack stack;            // owned mapping or unowned wrapper around a user stack
  void* tls_block = nullptr;
  size_t tls_size = 0;

  // ---- Scheduling state ----------------------------------------------------
  // Guards state transitions (state, stop/wakeup flags). Leaf lock: acquired
  // after any sleep-queue lock, never before — the lockdep hierarchy level
  // encodes exactly that exemption (see lockdep::SetOrder).
  SpinLock state_lock{/*lockdep_level=*/250};
  std::atomic<ThreadState> state{ThreadState::kEmbryo};
  std::atomic<int> priority{0};
  int queued_priority = 0;   // level this TCB was enqueued at (run queue internal)
  // Which dispatch container currently holds this runnable thread: a RunQueue
  // tag (shard index / overflow), a next-box code, kTcbNotQueued, or
  // kTcbInTransit while a stealer carries it between shards. Written under the
  // owning container's lock (or by the box CAS protocol); see run_queue.h.
  std::atomic<int> queued_where{kTcbNotQueued};
  int last_shard = -1;       // shard of the pool LWP that last ran this thread
  // Non-null iff permanently bound (THREAD_BIND_LWP). The running thread finds
  // its LWP through Lwp::Current(), other kernel threads via src/lwp/onproc.h.
  Lwp* bound_lwp = nullptr;
  bool is_main = false;      // the adopted initial thread

  // Stop/continue plumbing (thread_stop is honored at safe points).
  std::atomic<bool> stop_requested{false};

  // ---- Metrics (written only when Stats::Enabled(), except the counters) ---
  // Timestamp of the last MakeRunnable/yield-requeue; consumed (exchanged to
  // 0) at dispatch to compute wake->run latency.
  std::atomic<int64_t> runnable_since_ns{0};
  std::atomic<uint64_t> yield_count{0};     // voluntary thread_yield calls
  std::atomic<uint64_t> preempt_count{0};   // timeslice preemptions suffered


  // ---- thread_wait plumbing ------------------------------------------------
  bool waitable = false;        // created with THREAD_WAIT
  ThreadId waiting_for = kInvalidThreadId;  // valid while blocked in thread_wait

  // ---- Sync-object wait queue links (see src/sync) -------------------------
  // Sync variables must be zero-initializable even in shared memory, so their
  // embedded wait queues are singly-linked Tcb chains rather than IntrusiveLists.
  Tcb* wait_next = nullptr;
  uint8_t wait_mode = 0;  // rwlock: reader/writer/upgrader tag

  // Timed-wait support (cv_timedwait etc.): the generation distinguishes
  // successive blocks of the same thread so a stale timeout cannot wake a later
  // wait. Advanced by every WaitqPush — timed or not, on any object — because a
  // stale fire whose cancel lost the race must not match a later untimed wait
  // either (see the note on WaitqPush). timed_out reports which waker (signal
  // or timer) got there first. Both are written under the owning sync object's
  // qlock.
  uint64_t block_generation = 0;
  bool timed_out = false;
  // Timeout-fire acknowledgement. A timeout callback whose timer_cancel lost
  // the race still runs later and still dereferences the sync variable (it must
  // take the qlock to discover it is stale) — after the wait has returned, when
  // the caller may already have destroyed the variable. Each fire bumps this
  // counter once its last access to the sync variable is done; a waiter whose
  // cancel failed spins until the bump (src/sync/timed_wait.h), so no internal
  // reference outlives the wait. (Flushed out by the shakedown sweep under
  // TSan: a stale CvTimeoutFire locked the qlock of a stack-allocated condvar
  // after its frame had been reused.)
  std::atomic<uint64_t> timeout_fire_seq{0};

  // ---- Netpoller park state (see src/net) ----------------------------------
  // The wake reason of a thread parked on fd readiness (0 = readiness;
  // nonzero = cancelled by poller stop/unregister), written by the waker under
  // the fd entry's lock before the wake.
  uint8_t park_result = 0;

  // SYNC_DEBUG mutexes record what this thread is blocked on, enabling the
  // wait-for-graph deadlock detector (advisory reads; see src/sync/mutex.cc).
  std::atomic<void*> waiting_for_mutex{nullptr};

  // Lockdep per-thread state: held-lock stack + waiting_on for the wait-for
  // graph (see src/debug/lockdep.h). Lockdep reads it through
  // sched::CurrentTcb(), so reports can name user threads by their thread id.
  lockdep::ThreadNode lockdep_node;

  // ---- Signal state (consumed by src/signal) -------------------------------
  std::atomic<uint64_t> sigmask{0};
  std::atomic<uint64_t> pending_signals{0};
  bool handling_signal = false;
  bool on_alt_stack = false;  // bound threads: handler running on the alt stack

  // ---- Queue links ----------------------------------------------------------
  // A thread is on at most one of: run queue, a sleep queue, the zombie list.
  ListNode run_node;
  ListNode registry_node;  // global thread registry

  bool IsBound() const { return bound_lwp != nullptr; }
};

// A sleep queue: the wait list attached to every blocking object (sync variables,
// the thread_wait waiter list). FIFO; the owning object provides the lock.
using SleepQueue = IntrusiveList<Tcb, &Tcb::run_node>;

}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_TCB_H_
