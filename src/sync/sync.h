// Thread synchronization — the paper's Figure 4, synchronization half.
//
// Four facilities: mutex locks, condition variables, counting semaphores, and
// multiple-readers/single-writer locks. Design rules straight from the paper:
//
//  * "Any synchronization variable that is statically or dynamically allocated as
//    zero may be used immediately without further initialization, and provides
//    the default implementation variant in the default initial state."
//  * The programmer picks an implementation variant at init time (spin, adaptive,
//    debugging, ...) and may bitwise-or THREAD_SYNC_SHARED into the type to share
//    the variable between processes.
//  * Process-shared variables are address-free: they may be mapped at different
//    virtual addresses in different processes (they are built on futex words).
//  * Process-local variants synchronize entirely in user space — "threads within
//    a program should not be forced to cross protection boundaries to synchronize"
//    — blocking a thread, never its LWP (unless the thread is bound).
//  * While a thread waits on a process-shared variable it is temporarily bound to
//    its LWP, which blocks in the kernel; such waits feed SIGWAITING.
//  * Timed waits (sema_p_timed, cv_timedwait) are the ordinary wait plus a
//    per-thread timer from src/timer — "library routines may implement multiple
//    per-thread timers using the per-address space timer" — so the timer layer
//    sits below this one.

#ifndef SUNMT_SRC_SYNC_SYNC_H_
#define SUNMT_SRC_SYNC_SYNC_H_

#include <atomic>
#include <cstdint>

#include "src/debug/lockdep.h"
#include "src/util/spinlock.h"

namespace sunmt {

struct Tcb;

// ---- Variant/type flags (or'able; 0 selects every default) -------------------
enum : int {
  USYNC_THREAD = 0,            // process-local (default)
  THREAD_SYNC_SHARED = 0x100,  // usable between processes via shared memory
  SYNC_SPIN = 0x1,             // mutex: pure spin (never blocks the thread)
  SYNC_ADAPTIVE = 0x2,         // mutex: spin briefly, then block (default)
  SYNC_DEBUG = 0x8,            // extra checking: ownership, recursion, ...
};

// rw_enter() lock request types.
enum rw_type_t : int {
  RW_READER = 0,
  RW_WRITER = 1,
};

// ---- Synchronization variable layouts ----------------------------------------
// All-zero bytes are a valid, default-variant initial state for every type.
// The futex `word`s are the only fields the process-shared variants touch, so a
// shared variable works regardless of the mapping address in each process.

struct mutex_t {
  std::atomic<uint32_t> word{0};  // local: 0 free / 1 held; shared: futex protocol
  uint32_t type{0};
  SpinLock qlock;
  Tcb* wait_head{nullptr};
  Tcb* wait_tail{nullptr};
  // Maintained by the SYNC_DEBUG variant. Atomic (relaxed) because a blocked
  // enter's recursion check and deadlock walk read it while the holder writes.
  std::atomic<Tcb*> owner{nullptr};
  // Owner-aware adaptive spinning (local blocking variants): an onproc token
  // (see src/lwp/onproc.h) published by the holder after acquire and cleared
  // before release. Spinners decode it to ask "is the holder still ON-PROC?"
  // without ever touching the holder's TCB. 0 = unknown (also the valid
  // all-zero initial state).
  std::atomic<uint64_t> owner_token{0};
  // Hold-time metrics: enter timestamp, written by the holder while stats are
  // enabled (0 otherwise). Strict bracketing makes this race-free.
  int64_t acquired_ns{0};
  // Lock-order / deadlock detector state (SUNMT_DEBUG=lockorder); all-zero is
  // valid. In shared memory for THREAD_SYNC_SHARED variables — only pid-tagged
  // fields are trusted across processes (see lockdep.h).
  lockdep::ObjDebug lockdep_dbg;
};

struct condvar_t {
  std::atomic<uint32_t> seq{0};  // shared variant: futex sequence word
  uint32_t type{0};
  SpinLock qlock;
  Tcb* wait_head{nullptr};
  Tcb* wait_tail{nullptr};
  lockdep::ObjDebug lockdep_dbg;
};

struct sema_t {
  std::atomic<uint32_t> count{0};  // shared variant: futex word
  uint32_t type{0};
  SpinLock qlock;
  Tcb* wait_head{nullptr};
  Tcb* wait_tail{nullptr};
  lockdep::ObjDebug lockdep_dbg;
};

struct rwlock_t {
  // Local & shared: bit 31 = writer held, bit 30 = writers waiting (shared
  // variant only), low bits = reader count.
  std::atomic<uint32_t> state{0};
  uint32_t type{0};
  SpinLock qlock;
  Tcb* wait_head{nullptr};
  Tcb* wait_tail{nullptr};
  uint32_t waiting_writers{0};  // local variant, guarded by qlock
  Tcb* upgrader{nullptr};       // local variant: thread blocked in rw_tryupgrade
  lockdep::ObjDebug lockdep_dbg;
};

// ---- Mutex locks ---------------------------------------------------------------
// "Low overhead in both space and time ... strictly bracketing."
void mutex_init(mutex_t* mp, int type, void* arg);
void mutex_enter(mutex_t* mp);
void mutex_exit(mutex_t* mp);
int mutex_tryenter(mutex_t* mp);  // nonzero on success

// ---- Condition variables ---------------------------------------------------------
// Always used with a mutex; waiters must re-test their condition (there is no
// guaranteed acquisition order, and the shared variant may wake spuriously).
void cv_init(condvar_t* cvp, int type, void* arg);
void cv_wait(condvar_t* cvp, mutex_t* mutexp);
// Like cv_wait() but bounded: returns 0 if signaled, ETIME if `timeout_ns`
// elapsed first (a negative timeout counts as 0). The mutex is reacquired
// before returning in either case, and the re-test rule still applies.
int cv_timedwait(condvar_t* cvp, mutex_t* mutexp, int64_t timeout_ns);
void cv_signal(condvar_t* cvp);
void cv_broadcast(condvar_t* cvp);

// ---- Counting semaphores ------------------------------------------------------------
// "They need not be bracketed ... they also contain state so they may be used
// asynchronously without acquiring a mutex."
void sema_init(sema_t* sp, unsigned int count, int type, void* arg);
void sema_p(sema_t* sp);
// Like sema_p() but bounded: returns 1 if a token was taken, 0 if `timeout_ns`
// elapsed first (no token consumed; a negative timeout counts as 0).
int sema_p_timed(sema_t* sp, int64_t timeout_ns);
void sema_v(sema_t* sp);
int sema_tryp(sema_t* sp);  // nonzero on success

// ---- Readers/writer locks -------------------------------------------------------------
void rw_init(rwlock_t* rwlp, int type, void* arg);
void rw_enter(rwlock_t* rwlp, rw_type_t type);
void rw_exit(rwlock_t* rwlp);
int rw_tryenter(rwlock_t* rwlp, rw_type_t type);  // nonzero on success
// Atomically converts a held writer lock into a reader lock; waiting writers
// remain waiting, pending readers are admitted.
void rw_downgrade(rwlock_t* rwlp);
// Attempts to convert a held reader lock into a writer lock. Fails (returns 0)
// if another upgrade is in progress or writers are waiting; otherwise waits for
// the other readers to leave. (The shared variant additionally fails instead of
// waiting when other readers hold the lock — a documented variant difference.)
int rw_tryupgrade(rwlock_t* rwlp);

// ---- Debug naming / lock-order annotation ------------------------------------
// Lock-order and deadlock reports (SUNMT_DEBUG=lockorder, src/debug/lockdep.h)
// print `log_lock` instead of `mutex@0x40f3a2` once a variable is named.
// Variables sharing a name share a lock-order class. Names work whether or not
// the detector is enabled; unnamed variables get a class derived from their
// init (or first-acquire) site. *_set_order() places the variable's class in a
// locking hierarchy: acquiring strictly upward is exempt from order tracking,
// and same-class nesting becomes legal (the take-buckets-in-address-order
// idiom). Level must be >= 1.
void mutex_set_name(mutex_t* mp, const char* name);
void cv_set_name(condvar_t* cvp, const char* name);
void sema_set_name(sema_t* sp, const char* name);
void rw_set_name(rwlock_t* rwlp, const char* name);
void mutex_set_order(mutex_t* mp, int level);
void sema_set_order(sema_t* sp, int level);
void rw_set_order(rwlock_t* rwlp, int level);

}  // namespace sunmt

#endif  // SUNMT_SRC_SYNC_SYNC_H_
