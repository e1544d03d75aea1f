#include "src/pthread/pthread_compat.h"

#include <errno.h>

#include <unordered_map>

#include <new>

#include "src/core/thread.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

// Per-thread record carrying what SunOS threads do not: the void* return value
// and the detach state.
struct PtRecord {
  void* (*start)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<void*> retval{nullptr};
  std::atomic<bool> detached{false};
  std::atomic<bool> reaper_armed{false};
  thread_id_t tid = 0;
};

struct Registry {
  SpinLock lock;
  std::unordered_map<thread_id_t, PtRecord*> records;
};

Registry* g_registry = nullptr;  // built by the first Recs(), leaked

Registry& Recs() {
  static Registry* registry = g_registry = new Registry;
  return *registry;
}

// Finds a joinable thread's record for pt_join (`detach` false) or pt_detach
// (`detach` true, which marks it detached). Returns 0, ESRCH or EINVAL (already
// detached). Decided under the registry lock: a detached record belongs to its
// reaper, which may erase and delete it the moment the lock drops.
int ClaimJoinable(thread_id_t tid, bool detach, PtRecord** out) {
  Registry& r = Recs();
  SpinLockGuard guard(r.lock);
  auto it = r.records.find(tid);
  if (it == r.records.end()) {
    return ESRCH;
  }
  PtRecord* record = it->second;
  if (record->detached.load(std::memory_order_relaxed)) {
    return EINVAL;
  }
  if (detach) {
    record->detached.store(true, std::memory_order_relaxed);
  }
  *out = record;
  return 0;
}

void EraseRecord(thread_id_t tid) {
  Registry& r = Recs();
  SpinLockGuard guard(r.lock);
  r.records.erase(tid);
}

// TSD slot holding the calling thread's own record (for pt_exit).
tsd_key_t RecordKey() {
  static tsd_key_t key = tsd_key_create(nullptr);
  return key;
}

void PtTrampoline(void* arg) {
  auto* record = static_cast<PtRecord*>(arg);
  tsd_set(RecordKey(), record);
  void* rv = record->start(record->arg);
  record->retval.store(rv, std::memory_order_release);
}

// Reaps a detached pthread: waits for it and frees the record.
void ReaperEntry(void* arg) {
  auto* record = static_cast<PtRecord*>(arg);
  thread_id_t tid = record->tid;
  if (thread_wait(tid) == tid) {
    EraseRecord(tid);
    delete record;
  }
}

void ArmReaper(PtRecord* record) {
  if (record->reaper_armed.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  thread_id_t reaper = thread_create(nullptr, 0, &ReaperEntry, record, 0);
  SUNMT_CHECK(reaper != kInvalidThreadId);
}

}  // namespace

// Parent pthread records reference threads that do not exist here; rebuild the
// registry empty (records leak — safe direction).
void PthreadResetAfterFork() {
  if (g_registry != nullptr) {
    new (g_registry) Registry();
  }
}

int pt_attr_init(pt_attr_t* attr) {
  *attr = pt_attr_t{};
  return 0;
}

int pt_attr_setdetachstate(pt_attr_t* attr, int state) {
  if (state != PT_CREATE_JOINABLE && state != PT_CREATE_DETACHED) {
    return EINVAL;
  }
  attr->detachstate = state;
  return 0;
}

int pt_attr_setscope(pt_attr_t* attr, int scope) {
  if (scope != PT_SCOPE_PROCESS && scope != PT_SCOPE_SYSTEM) {
    return EINVAL;
  }
  attr->scope = scope;
  return 0;
}

int pt_attr_setstacksize(pt_attr_t* attr, size_t size) {
  if (size != 0 && size < 16 * 1024) {
    return EINVAL;
  }
  attr->stacksize = size;
  return 0;
}

int pt_attr_setstack(pt_attr_t* attr, void* addr, size_t size) {
  if (addr == nullptr || size < 16 * 1024) {
    return EINVAL;
  }
  attr->stackaddr = addr;
  attr->stacksize = size;
  return 0;
}

int pt_attr_setpriority(pt_attr_t* attr, int priority) {
  if (priority < 0) {
    return EINVAL;
  }
  attr->priority = priority;
  return 0;
}

int pt_create(pt_t* thread, const pt_attr_t* attr, void* (*start)(void*), void* arg) {
  if (thread == nullptr || start == nullptr) {
    return EINVAL;
  }
  pt_attr_t defaults;
  const pt_attr_t& a = attr != nullptr ? *attr : defaults;

  auto* record = new PtRecord;
  record->start = start;
  record->arg = arg;
  record->detached.store(a.detachstate == PT_CREATE_DETACHED, std::memory_order_relaxed);

  // Every pthread is created waitable so join/reap works; PTHREAD_SCOPE_SYSTEM
  // maps to a bound thread, exactly as the paper suggests for Pthreads-on-top.
  int flags = THREAD_WAIT;
  if (a.scope == PT_SCOPE_SYSTEM) {
    flags |= THREAD_BIND_LWP;
  }
  // Create stopped so the record registration happens-before the thread runs
  // and before anyone can join it.
  flags |= THREAD_STOP;
  thread_id_t tid =
      thread_create(a.stackaddr, a.stacksize, &PtTrampoline, record, flags);
  if (tid == kInvalidThreadId) {
    delete record;
    return EAGAIN;
  }
  record->tid = tid;
  {
    Registry& r = Recs();
    SpinLockGuard guard(r.lock);
    r.records[tid] = record;
  }
  if (a.priority >= 0) {
    thread_priority(tid, a.priority);
  }
  if (record->detached.load(std::memory_order_relaxed)) {
    ArmReaper(record);
  }
  thread_continue(tid);
  *thread = tid;
  return 0;
}

int pt_join(pt_t thread, void** retval) {
  if (thread == pt_self()) {
    return EDEADLK;
  }
  PtRecord* record = nullptr;
  if (int rc = ClaimJoinable(thread, /*detach=*/false, &record); rc != 0) {
    return rc;  // EINVAL: cannot join a detached thread
  }
  if (thread_wait(thread) != thread) {
    return ESRCH;  // already joined or never waitable
  }
  if (retval != nullptr) {
    *retval = record->retval.load(std::memory_order_acquire);
  }
  EraseRecord(thread);
  delete record;
  return 0;
}

int pt_detach(pt_t thread) {
  PtRecord* record = nullptr;
  if (int rc = ClaimJoinable(thread, /*detach=*/true, &record); rc != 0) {
    return rc;  // EINVAL: already detached
  }
  ArmReaper(record);
  return 0;
}

void pt_exit(void* retval) {
  auto* record = static_cast<PtRecord*>(tsd_get(RecordKey()));
  if (record != nullptr) {
    record->retval.store(retval, std::memory_order_release);
  }
  thread_exit();
}

pt_t pt_self() { return thread_get_id(); }

int pt_equal(pt_t a, pt_t b) { return a == b ? 1 : 0; }

int pt_yield() {
  thread_yield();
  return 0;
}

int pt_once(pt_once_t* once, void (*init_routine)()) {
  if (init_routine == nullptr) {
    return EINVAL;
  }
  uint32_t expected = 0;
  if (once->state.compare_exchange_strong(expected, 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    init_routine();
    once->state.store(2, std::memory_order_release);
    return 0;
  }
  while (once->state.load(std::memory_order_acquire) != 2) {
    thread_yield();
  }
  return 0;
}

int pt_mutex_init(pt_mutex_t* mutex, const pt_mutexattr_t* attr) {
  int type = (attr != nullptr && attr->pshared) ? THREAD_SYNC_SHARED : 0;
  mutex_init(&mutex->impl, type, nullptr);
  return 0;
}

int pt_mutex_lock(pt_mutex_t* mutex) {
  mutex_enter(&mutex->impl);
  return 0;
}

int pt_mutex_trylock(pt_mutex_t* mutex) {
  return mutex_tryenter(&mutex->impl) ? 0 : EBUSY;
}

int pt_mutex_unlock(pt_mutex_t* mutex) {
  mutex_exit(&mutex->impl);
  return 0;
}

int pt_mutex_destroy(pt_mutex_t* mutex) {
  mutex_init(&mutex->impl, 0, nullptr);  // reset to a pristine state
  return 0;
}

int pt_cond_init(pt_cond_t* cond, const pt_condattr_t* attr) {
  int type = (attr != nullptr && attr->pshared) ? THREAD_SYNC_SHARED : 0;
  cv_init(&cond->impl, type, nullptr);
  return 0;
}

int pt_cond_wait(pt_cond_t* cond, pt_mutex_t* mutex) {
  cv_wait(&cond->impl, &mutex->impl);
  return 0;
}

int pt_cond_timedwait(pt_cond_t* cond, pt_mutex_t* mutex, int64_t timeout_ns) {
  return cv_timedwait(&cond->impl, &mutex->impl, timeout_ns) == 0 ? 0 : ETIMEDOUT;
}

int pt_cond_signal(pt_cond_t* cond) {
  cv_signal(&cond->impl);
  return 0;
}

int pt_cond_broadcast(pt_cond_t* cond) {
  cv_broadcast(&cond->impl);
  return 0;
}

int pt_cond_destroy(pt_cond_t* cond) {
  cv_init(&cond->impl, 0, nullptr);
  return 0;
}

int pt_rwlock_init(pt_rwlock_t* rwlock, int pshared) {
  rw_init(&rwlock->impl, pshared ? THREAD_SYNC_SHARED : 0, nullptr);
  return 0;
}

int pt_rwlock_rdlock(pt_rwlock_t* rwlock) {
  rw_enter(&rwlock->impl, RW_READER);
  return 0;
}

int pt_rwlock_wrlock(pt_rwlock_t* rwlock) {
  rw_enter(&rwlock->impl, RW_WRITER);
  return 0;
}

int pt_rwlock_tryrdlock(pt_rwlock_t* rwlock) {
  return rw_tryenter(&rwlock->impl, RW_READER) ? 0 : EBUSY;
}

int pt_rwlock_trywrlock(pt_rwlock_t* rwlock) {
  return rw_tryenter(&rwlock->impl, RW_WRITER) ? 0 : EBUSY;
}

int pt_rwlock_unlock(pt_rwlock_t* rwlock) {
  rw_exit(&rwlock->impl);
  return 0;
}

int pt_rwlock_destroy(pt_rwlock_t* rwlock) {
  rw_init(&rwlock->impl, 0, nullptr);
  return 0;
}

int pt_key_create(pt_key_t* key, void (*destructor)(void*)) {
  if (key == nullptr) {
    return EINVAL;
  }
  tsd_key_t k = tsd_key_create(destructor);
  if (k == kInvalidTsdKey) {
    return EAGAIN;
  }
  *key = k;
  return 0;
}

int pt_setspecific(pt_key_t key, const void* value) {
  return tsd_set(key, const_cast<void*>(value)) == 0 ? 0 : EINVAL;
}

void* pt_getspecific(pt_key_t key) { return tsd_get(key); }

}  // namespace sunmt
