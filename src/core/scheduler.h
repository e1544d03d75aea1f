// The user-level scheduler: how LWPs execute threads (Figure 2 of the paper).
//
// An LWP "chooses a thread to run by locating the thread state in process memory,
// loading the registers and assuming the identity of the thread"; when the thread
// cannot continue, the LWP "saves the state of the thread back in memory" and picks
// another. All of that happens here, without entering the kernel.
//
// Handoff protocol (switch-then-commit): a thread that leaves its LWP passes a
// small SwitchCommit closure through the context switch; the LWP's dispatch loop
// runs the closure *after* the thread's register state is fully saved. Blocking
// paths keep the sleep queue's spinlock held across the switch and release it in
// the commit, so a waker can never dispatch a thread whose context is still being
// saved.
//
// This header is internal to the threads package; applications use
// src/core/thread.h (the paper's Figure 4 interface).

#ifndef SUNMT_SRC_CORE_SCHEDULER_H_
#define SUNMT_SRC_CORE_SCHEDULER_H_

#include "src/core/tcb.h"
#include "src/util/spinlock.h"

namespace sunmt {

class Lwp;

namespace sched {

// The thread currently executing on this kernel thread, or nullptr if the caller
// is not running on an LWP.
Tcb* CurrentTcb();

// Like CurrentTcb(), but adopts a foreign kernel thread (including the initial
// program thread) into the threads package on first use: it gets an LWP of its
// own and a bound TCB, per the paper's "degenerate case of a process constructed
// of an address space and one lightweight process".
Tcb* CurrentTcbOrAdopt();

// ---- Thread-side operations (must run on an LWP) ---------------------------

// Cooperatively gives up the LWP if equal-or-higher-priority work is queued.
void Yield();

// Blocks the current thread. The caller must already have pushed it onto a sleep
// queue guarded by `queue_lock`, which is held at the call and released by the
// commit after the context save. Returns when another thread calls Wake().
void Block(SpinLock* queue_lock);

// Terminates the current thread after running its thread-specific-data
// destructors on its own stack; never returns.
[[noreturn]] void ExitCurrent();

// Stops the current thread until thread_continue (never returns until continued).
void StopSelf();

// Honors pending stop requests and delivers pending, unmasked signals. Called
// at every scheduling safe point; cheap when nothing is pending.
void SafePoint();

// ---- Waker-side operations (any thread) -------------------------------------

// Makes a blocked thread runnable. The caller must have removed it from its sleep
// queue (holding that queue's lock) first. If a stop request is pending, the
// wakeup is deferred until thread_continue (the thread parks in kStopped).
void Wake(Tcb* tcb);

// Makes a thread that is in state `from` runnable: requeues it (unbound) or
// kicks its LWP (bound). The state test and the kRunnable store share one
// state_lock section, so of two racing callers (two thread_continue calls on
// one stopped thread) exactly one enqueues it. Returns whether this call did.
bool MakeRunnable(Tcb* tcb, ThreadState from);

// ---- LWP dispatch loops ------------------------------------------------------

// Main function for pool LWPs: multiplexes unbound threads from the run queue.
void PoolLwpMain(Lwp* self, void* arg);

// Main function for a dedicated LWP permanently bound to one thread (arg = Tcb*).
void BoundLwpMain(Lwp* self, void* arg);

// Dispatch-loop body shared by all LWP kinds: runs `tcb` until it switches back,
// then executes its commit closure.
void RunThread(Lwp* lwp, Tcb* tcb);

// Entry point for new-thread contexts (installed by thread_create).
void ThreadTrampoline(void* arg);

}  // namespace sched
}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_SCHEDULER_H_
