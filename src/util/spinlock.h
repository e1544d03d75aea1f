// Test-and-test-and-set spinlock with exponential backoff and a kernel-yield
// fallback.
//
// Used for the short critical sections inside the threads package itself (run queue,
// sleep queues, registry). User-facing mutual exclusion is provided by sunmt::Mutex,
// which blocks threads instead of burning the LWP.
//
// The yield fallback matters whenever LWPs outnumber CPUs: the holder of a
// short critical section can be preempted by the kernel mid-section, and a
// pure spin then burns the waiter's entire kernel timeslice (milliseconds)
// before the holder runs again. After a bounded spin the waiter sched_yield()s
// so the holder gets the CPU back promptly.

#ifndef SUNMT_SRC_UTIL_SPINLOCK_H_
#define SUNMT_SRC_UTIL_SPINLOCK_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/debug/lockdep.h"
#include "src/inject/inject.h"

namespace sunmt {

// CPU-relax hint for spin loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Bounded exponential backoff for contended CAS loops.
class Backoff {
 public:
  void Pause() {
    for (uint32_t i = 0; i < count_; ++i) {
      CpuRelax();
    }
    if (count_ < kMaxSpin) {
      count_ *= 2;
    }
  }

  void Reset() { count_ = 1; }

 private:
  static constexpr uint32_t kMaxSpin = 1024;
  uint32_t count_ = 1;
};

class SpinLock {
 public:
  SpinLock() = default;
  // Lockdep hierarchy annotation baked into the lock's class: a lock whose
  // level is strictly higher than everything held may always be acquired
  // (the "declared leaf" idiom, e.g. the TCB state lock). See lockdep.h.
  explicit SpinLock(uint8_t lockdep_level) : ld_level_(lockdep_level) {}
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() {
    inject::Perturb(inject::kSpinLockAcquire);
    if (__builtin_expect(kOwnerTracking || lockdep::Enabled(), 0)) {
      LockDebug();
      return;
    }
    LockLoop();
  }

  bool TryLock() {
    if (locked_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    if (__builtin_expect(kOwnerTracking || lockdep::Enabled(), 0)) {
      TryLockDebug();
    }
    return true;
  }

  void Unlock() {
    // Perturbing *before* the releasing store stretches the critical section —
    // the "holder preempted mid-section" schedule the yield fallback exists for.
    inject::Perturb(inject::kSpinLockRelease);
    if (__builtin_expect(kOwnerTracking || lockdep::Enabled(), 0)) {
      owner_.store(0, std::memory_order_relaxed);
      if (lockdep::Enabled()) {
        lockdep::OnSpinRelease(this);
      }
    }
    locked_.store(false, std::memory_order_release);
  }

  bool IsLocked() const { return locked_.load(std::memory_order_relaxed); }

  // Forcibly returns the lock to the released state regardless of history.
  // Only for re-initialization of storage that may hold a stale lock image
  // (e.g. sync-variable *_init on a previously used variable); never a
  // substitute for Unlock().
  void Reset() {
    owner_.store(0, std::memory_order_relaxed);
    ld_class_.store(0, std::memory_order_relaxed);
    locked_.store(false, std::memory_order_release);
  }

 private:
#ifdef NDEBUG
  static constexpr bool kOwnerTracking = false;  // runtime opt-in via lockdep
#else
  static constexpr bool kOwnerTracking = true;  // debug builds: always track
#endif

  void LockLoop() {
    Backoff backoff;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      uint32_t spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins < kSpinsBeforeYield) {
          backoff.Pause();
        } else {
          sched_yield();  // holder likely preempted; give it the CPU
        }
      }
    }
  }

  // Debug-mode acquire: self-relock would otherwise spin forever silently —
  // report it. Owner identity is the *kernel* thread: a user thread cannot
  // migrate LWPs while holding a spinlock (the one deschedule-with-lock-held
  // path unlocks from the dispatcher on the same kernel thread).
  //
  // Both debug entries are noinline and compute the acquire pc *inside*: since
  // Lock()/TryLock() inline into their callers, the return address of this
  // frame is the precise acquire site, one per call. (Capturing it in the
  // inlined caller would yield the *enclosing function's* return address and
  // merge every spinlock it touches into one lockdep class — two distinct
  // locks nested inside one function then look like same-class nesting.)
  __attribute__((noinline)) void LockDebug() {
    uintptr_t pc = reinterpret_cast<uintptr_t>(__builtin_return_address(0));
    uint32_t self = lockdep::KernelTid();
    // owner_ goes stale when lockdep is switched off inside a critical section
    // (that unlock skips clearing it), so a self-relock must also be held now.
    if (owner_.load(std::memory_order_relaxed) == self &&
        locked_.load(std::memory_order_relaxed)) {
      fprintf(stderr,
              "SUNMT: SpinLock self-relock: kernel thread %u re-acquiring "
              "%p at 0x%lx\n",
              self, static_cast<void*>(this), static_cast<unsigned long>(pc));
      fflush(stderr);
      abort();
    }
    if (lockdep::Enabled()) {
      // Before the spin: an AB/BA spin livelock still gets its report.
      lockdep::OnSpinAcquire(this, &ld_class_, pc, ld_level_, 0);
    }
    LockLoop();
    owner_.store(self, std::memory_order_relaxed);
  }

  __attribute__((noinline)) void TryLockDebug() {
    owner_.store(lockdep::KernelTid(), std::memory_order_relaxed);
    if (lockdep::Enabled()) {
      lockdep::OnSpinAcquire(
          this, &ld_class_,
          reinterpret_cast<uintptr_t>(__builtin_return_address(0)), ld_level_,
          lockdep::kFlagTry);
    }
  }

  // ~30us of backoff-paced spinning before the first yield: longer than any
  // critical section in the package, shorter than a kernel timeslice.
  static constexpr uint32_t kSpinsBeforeYield = 64;

  std::atomic<bool> locked_{false};
  uint8_t ld_level_ = 0;                 // lockdep hierarchy annotation
  std::atomic<uint32_t> owner_{0};       // kernel tid of holder (debug modes)
  std::atomic<uint32_t> ld_class_{0};    // lockdep class id (lazy)
};

// RAII guard for SpinLock.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinLockGuard() { lock_.Unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace sunmt

#endif  // SUNMT_SRC_UTIL_SPINLOCK_H_
