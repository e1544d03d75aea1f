// The thread interface — the paper's Figure 4, thread-management half.
//
// "Threads are the primary interface for application parallelism." These calls are
// implemented entirely in user space; only THREAD_NEW_LWP / THREAD_BIND_LWP and
// thread_setconcurrency() touch the (simulated) kernel, by creating LWPs.
//
// Naming note: this header deliberately reproduces the paper's C-style snake_case
// interface (thread_create, thread_exit, ...) — the API *is* the artifact being
// reproduced. The implementation underneath follows the repository's usual C++
// conventions. Synchronization lives in src/sync/sync.h and the signal interface
// (thread_sigsetmask, thread_kill, sigsend) in src/signal/signal.h.

#ifndef SUNMT_SRC_CORE_THREAD_H_
#define SUNMT_SRC_CORE_THREAD_H_

#include <cstddef>
#include <cstdint>

namespace sunmt {

using thread_id_t = uint64_t;
inline constexpr thread_id_t kInvalidThreadId = 0;

// thread_create() flags (or'able), exactly the paper's set.
enum : int {
  // Create the thread suspended; it runs only after thread_continue().
  THREAD_STOP = 1 << 0,
  // Also create a new LWP and add it to the pool used to run unbound threads.
  THREAD_NEW_LWP = 1 << 1,
  // Create a new LWP and permanently bind the new thread to it.
  THREAD_BIND_LWP = 1 << 2,
  // Another thread will eventually thread_wait() for this one; its ID is not
  // reused until the waiter returns.
  THREAD_WAIT = 1 << 3,
};

// Creates a new thread executing func(arg).
//
// If stack_addr != nullptr, the thread runs on the caller-supplied memory
// [stack_addr, stack_addr + stack_size); thread-local storage is carved from it
// ("so as not to interfere with stack growth") and the package never frees it.
// If stack_addr == nullptr, the stack comes from the package: a cached
// default-size stack when stack_size == 0, else a fresh mapping of stack_size
// bytes. The new thread inherits the creator's priority and signal mask.
// Returns the new thread's ID (valid only within this process), or 0 on error.
thread_id_t thread_create(void* stack_addr, size_t stack_size, void (*func)(void*),
                          void* arg, int flags);

// Sets the number of LWPs available to run unbound threads (bound LWPs are not
// counted) to n; n == 0 leaves it as it is. Either way the library still
// creates LWPs as required to avoid deadlock (SIGWAITING) unless
// RuntimeConfig::auto_grow is off. Returns 0.
int thread_setconcurrency(int n);

// Terminates the calling thread and releases package-allocated resources.
[[noreturn]] void thread_exit();

// Blocks until the specified THREAD_WAIT thread exits and returns its ID; the ID
// is then dead. thread_id == 0 waits for any THREAD_WAIT thread. Returns 0 on
// error (waiting for self, for a non-waitable or unknown thread, or for a thread
// that already has a waiter).
thread_id_t thread_wait(thread_id_t thread_id);

// id_type selectors shared by waitid() and sigsend() (paper's P_THREAD /
// P_THREAD_ALL).
enum : int {
  P_THREAD = 1,
  P_THREAD_ALL = 2,
};

// "An alternate interface for this function is waitid()": P_THREAD waits for
// the specific thread, P_THREAD_ALL for any THREAD_WAIT thread. Returns the
// exited ID or 0 on error (the paper: "the exit status of a thread is always
// zero", so the ID is the entire result).
thread_id_t thread_waitid(int id_type, thread_id_t id);

// Returns the calling thread's ID. A kernel thread that is not yet part of the
// package (e.g. the initial program thread) is adopted on first use.
thread_id_t thread_get_id();

// Prevents the specified thread from running; 0 stops the calling thread.
// Does not return until the target is stopped (unbound targets stop at their
// next scheduling safe point — a yield, block, unblock or package call).
// Returns 0 on success, -1 if the thread does not exist.
int thread_stop(thread_id_t thread_id);

// (Re)starts a thread created with THREAD_STOP or stopped by thread_stop().
// Returns 0 on success, -1 if the thread does not exist.
int thread_continue(thread_id_t thread_id);

// Sets the priority (>= 0; higher runs first) of the given thread (0 = calling
// thread) and returns the old priority, or -1 if the thread does not exist.
int thread_priority(thread_id_t thread_id, int priority);

// Yields the LWP to another runnable thread of equal or higher priority.
// (Not in Figure 4, but required by the cooperative user-level model; Solaris
// shipped the equivalent thr_yield().)
void thread_yield();

// A cheap explicit scheduling safe point: honors pending stop requests,
// time-slice preemption, and signal delivery without otherwise yielding.
// Long CPU-bound loops should call this periodically.
void thread_poll();

// Labels a thread for debuggers/introspection (max 31 chars, process-local —
// the paper: "there is no system-wide name space for threads"). thread_id == 0
// names the calling thread. Returns 0, or -1 if the thread does not exist.
int thread_setname(thread_id_t thread_id, const char* name);

// Copies the thread's label into buf (size >= 1; truncates, NUL-terminates).
// Returns 0, or -1 if the thread does not exist.
int thread_getname(thread_id_t thread_id, char* buf, size_t size);

}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_THREAD_H_
