// The multi-threaded signal model.
//
// Semantics reproduced from the paper:
//  * Each thread has its own signal mask; all threads share one vector of
//    per-process signal handlers.
//  * Signals divide into *traps* (caused synchronously by a thread's own
//    execution: SIGILL, SIGFPE, SIGSEGV, ...) handled only by the causing
//    thread, and *interrupts* (asynchronous, from outside) handled by any one
//    thread that has the signal unmasked.
//  * If every thread masks an interrupt it pends on the process until some
//    thread unmasks it. Pending signals do not queue: "the number of signals
//    received by the process is less than or equal to the number sent."
//  * thread_kill() sends a signal to a specific thread in this process; it then
//    behaves like a trap (only that thread may handle it). sigsend() reaches one
//    thread (P_THREAD) or every thread (P_THREAD_ALL).
//  * SIG_DFL / SIG_IGN actions (exit, stop, continue, ignore) affect *all*
//    threads in the process.
//  * SIGWAITING (new) is raised when all the process's LWPs block in indefinite
//    waits; default action is to ignore it (the threads library separately uses
//    the condition to grow the LWP pool).
//
// Substitution note (see DESIGN.md): this is a simulated signal subsystem — the
// delivery policy is the paper's, but signals originate from these APIs rather
// than from the host kernel, and handlers run at scheduling safe points (yields,
// sync operations, package calls, or an explicit signal_poll()). Blocked threads
// receive pending signals when they next run.

#ifndef SUNMT_SRC_SIGNAL_SIGNAL_H_
#define SUNMT_SRC_SIGNAL_SIGNAL_H_

#include <cstdint>

#include "src/core/thread.h"

namespace sunmt {

// Signal numbers (1-based, values match the classic UNIX assignments).
enum : int {
  SIG_HUP = 1,
  SIG_INT = 2,
  SIG_QUIT = 3,
  SIG_ILL = 4,
  SIG_TRAP = 5,
  SIG_ABRT = 6,
  SIG_FPE = 8,
  SIG_USR1 = 10,
  SIG_SEGV = 11,
  SIG_USR2 = 12,
  SIG_PIPE = 13,
  SIG_ALRM = 14,
  SIG_TERM = 15,
  SIG_CHLD = 17,
  SIG_CONT = 18,
  SIG_STOP = 19,
  SIG_IO = 23,
  SIG_XCPU = 24,
  SIG_VTALRM = 26,
  SIG_PROF = 27,
  SIG_WAITING = 32,  // the paper's new signal
  SIG_MAX = 64,
};

using sigset64_t = uint64_t;

constexpr sigset64_t SigBit(int sig) { return sigset64_t{1} << (sig - 1); }

// Handler values. A real handler is any other function pointer.
using SignalHandler = void (*)(int sig);
SignalHandler const SIG_DEFAULT = reinterpret_cast<SignalHandler>(0);
SignalHandler const SIG_IGNORE = reinterpret_cast<SignalHandler>(1);

// thread_sigsetmask() `how` values (distinct names: the libc macros SIG_BLOCK
// etc. would collide with any program that also includes <signal.h>).
enum : int {
  SIGMASK_BLOCK = 1,
  SIGMASK_UNBLOCK = 2,
  SIGMASK_SETMASK = 3,
};

// sigsend() id_type values (P_THREAD / P_THREAD_ALL) are shared with waitid()
// and live in src/core/thread.h.

// ---- Handler management (process-wide, shared by all threads) -----------------
// Installs `handler` for `sig` and returns the previous one. Equivalent of
// signal(2): "all threads in the same address space share the set of signal
// handlers."
SignalHandler signal_handler_set(int sig, SignalHandler handler);
SignalHandler signal_handler_get(int sig);

// ---- Per-thread mask ------------------------------------------------------------
// Adjusts the calling thread's signal mask; `set` may be null to just query.
// Unmasking checks the process-pending set and claims anything deliverable.
// Returns 0, or -1 for a bad `how`.
int thread_sigsetmask(int how, const sigset64_t* set, sigset64_t* oset);

// ---- Sending ----------------------------------------------------------------------
// Sends `sig` to a specific thread in this process (trap-like: only that thread
// handles it). Returns 0, or -1 if the thread does not exist. Threads in other
// processes are unreachable by design ("threads in other processes are invisible").
int thread_kill(thread_id_t thread_id, int sig);

// sigsend(): P_THREAD sends to the thread `id`; P_THREAD_ALL to all threads.
int sigsend(int id_type, thread_id_t id, int sig);

// Raises a process-directed interrupt: one thread with the signal unmasked is
// chosen; if all mask it, it pends on the process.
int signal_raise_process(int sig);

// Raises a synchronous trap on the calling thread (e.g. the FP-overflow example:
// "a floating-point overflow trap applies to a particular thread"). Delivered
// immediately if unmasked, else pends on the thread.
int signal_raise_trap(int sig);

// ---- Delivery --------------------------------------------------------------------
// Explicit safe point: delivers any pending, unmasked signals to the caller.
// (Delivery also happens automatically at scheduling safe points.)
void signal_poll();

// True if `sig` is a trap (synchronous) rather than an interrupt.
bool signal_is_trap(int sig);

// Makes the runtime's SIGWAITING response (pool growth) also raise an
// observable SIG_WAITING to the process. Idempotent.
void signal_enable_sigwaiting();

// Count of process-pending signals dropped due to coalescing (for tests:
// verifies "received <= sent").
uint64_t signal_coalesced_count();

// ---- Alternate signal stacks (bound threads only) -----------------------------
// "Threads bound to LWPs may use alternate stacks as this state is associated
// with each LWP"; unbound threads may not ("deemed too expensive"). Installs
// [base, base+size) as the calling bound thread's handler stack; base == nullptr
// disables. Returns 0, or -1 if the calling thread is unbound or size is too
// small (< 16 KiB).
int signal_altstack(void* base, size_t size);

// True while the caller is executing a handler on its alternate stack.
bool signal_on_altstack();

// ---- Package-internal --------------------------------------------------------
// Runs the dispositions of `self`'s pending, unmasked signals on its own
// stack, one at a time. The scheduler calls it at every safe point.
struct Tcb;
void DeliverPendingSignals(Tcb* self);

// fork1() child repair (Runtime::ResetAfterFork): resets the handler table's
// lock.
void SignalResetAfterFork();

}  // namespace sunmt

#endif  // SUNMT_SRC_SIGNAL_SIGNAL_H_
