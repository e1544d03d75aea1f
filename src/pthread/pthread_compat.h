// POSIX-Pthreads-style interface layered on the SunOS MT primitives.
//
// The paper's summary claims: "A minimalist translation of the UNIX environment
// to threads allows higher-level interfaces such as POSIX Pthreads to be
// implemented on top of SunOS threads." This module is that implementation —
// P1003.4a-shaped calls (create/join/detach with return values, attributes,
// once-control, mutex/cond/rwlock wrappers, thread-specific data) built purely
// from the public sunmt API:
//
//   * return values     -> a small per-thread record (SunOS thread exit status
//                          "is always zero", so the layer carries the void*)
//   * joinable threads  -> THREAD_WAIT + thread_wait
//   * detached threads  -> plain threads (the package reclaims them at exit)
//   * PTHREAD_SCOPE_SYSTEM -> THREAD_BIND_LWP ("bound to an LWP")
//   * PTHREAD_SCOPE_PROCESS -> unbound (default)
//   * pthread keys      -> src/tls thread-specific data
//   * process-shared    -> THREAD_SYNC_SHARED variants
//
// Names carry a pt_ prefix to avoid colliding with the host libc's pthreads.

#ifndef SUNMT_SRC_PTHREAD_PTHREAD_COMPAT_H_
#define SUNMT_SRC_PTHREAD_PTHREAD_COMPAT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/sync/sync.h"
#include "src/tls/tsd.h"

namespace sunmt {

using pt_t = uint64_t;

// ---- Thread attributes ---------------------------------------------------------
enum : int {
  PT_CREATE_JOINABLE = 0,
  PT_CREATE_DETACHED = 1,
  PT_SCOPE_PROCESS = 0,  // unbound: multiplexed on the LWP pool
  PT_SCOPE_SYSTEM = 1,   // bound: its own LWP, scheduled by the kernel
};

struct pt_attr_t {
  int detachstate = PT_CREATE_JOINABLE;
  int scope = PT_SCOPE_PROCESS;
  size_t stacksize = 0;        // 0 = package default
  void* stackaddr = nullptr;   // caller-supplied stack (with stacksize)
  int priority = -1;           // -1 = inherit
};

int pt_attr_init(pt_attr_t* attr);
int pt_attr_setdetachstate(pt_attr_t* attr, int state);
int pt_attr_setscope(pt_attr_t* attr, int scope);
int pt_attr_setstacksize(pt_attr_t* attr, size_t size);
int pt_attr_setstack(pt_attr_t* attr, void* addr, size_t size);
int pt_attr_setpriority(pt_attr_t* attr, int priority);

// ---- Thread lifecycle ------------------------------------------------------------
// All functions return 0 on success or a positive errno-style code (EINVAL=22,
// ESRCH=3, EDEADLK=35, EAGAIN=11), matching POSIX conventions.
int pt_create(pt_t* thread, const pt_attr_t* attr, void* (*start)(void*), void* arg);
int pt_join(pt_t thread, void** retval);
int pt_detach(pt_t thread);
[[noreturn]] void pt_exit(void* retval);
pt_t pt_self();
int pt_equal(pt_t a, pt_t b);
int pt_yield();

// ---- Once control -------------------------------------------------------------------
struct pt_once_t {
  std::atomic<uint32_t> state{0};  // zero-initialized, like every sunmt sync var
};
int pt_once(pt_once_t* once, void (*init_routine)());

// ---- Mutexes ----------------------------------------------------------------------------
struct pt_mutexattr_t {
  int pshared = 0;
};
struct pt_mutex_t {
  mutex_t impl;
};
int pt_mutex_init(pt_mutex_t* mutex, const pt_mutexattr_t* attr);
int pt_mutex_lock(pt_mutex_t* mutex);
int pt_mutex_trylock(pt_mutex_t* mutex);  // 0 or EBUSY(16)
int pt_mutex_unlock(pt_mutex_t* mutex);
int pt_mutex_destroy(pt_mutex_t* mutex);

// ---- Condition variables ---------------------------------------------------------------
struct pt_condattr_t {
  int pshared = 0;
};
struct pt_cond_t {
  condvar_t impl;
};
int pt_cond_init(pt_cond_t* cond, const pt_condattr_t* attr);
int pt_cond_wait(pt_cond_t* cond, pt_mutex_t* mutex);
// Relative-timeout variant (POSIX uses an absolute timespec; the translation
// is the caller's one-liner). Returns 0 or ETIMEDOUT.
int pt_cond_timedwait(pt_cond_t* cond, pt_mutex_t* mutex, int64_t timeout_ns);
int pt_cond_signal(pt_cond_t* cond);
int pt_cond_broadcast(pt_cond_t* cond);
int pt_cond_destroy(pt_cond_t* cond);

// ---- Readers/writer locks ------------------------------------------------------------------
struct pt_rwlock_t {
  rwlock_t impl;
};
int pt_rwlock_init(pt_rwlock_t* rwlock, int pshared);
int pt_rwlock_rdlock(pt_rwlock_t* rwlock);
int pt_rwlock_wrlock(pt_rwlock_t* rwlock);
int pt_rwlock_tryrdlock(pt_rwlock_t* rwlock);  // 0 or EBUSY
int pt_rwlock_trywrlock(pt_rwlock_t* rwlock);
int pt_rwlock_unlock(pt_rwlock_t* rwlock);
int pt_rwlock_destroy(pt_rwlock_t* rwlock);

// ---- Thread-specific data ---------------------------------------------------------------------
using pt_key_t = tsd_key_t;
int pt_key_create(pt_key_t* key, void (*destructor)(void*));
int pt_setspecific(pt_key_t key, const void* value);
void* pt_getspecific(pt_key_t key);

// Package-internal: fork1() child repair (Runtime::ResetAfterFork). Rebuilds
// the thread-record registry empty, if one was built.
void PthreadResetAfterFork();

}  // namespace sunmt

#endif  // SUNMT_SRC_PTHREAD_PTHREAD_COMPAT_H_
