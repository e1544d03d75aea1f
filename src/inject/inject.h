// Shakedown: deterministic schedule-perturbation & fault injection.
//
// The library's correctness story lives in its cross-thread hand-offs (sync
// qlocks, sched::Block/Wake, run-queue push/steal/box-CAS, futex waits, timer
// callbacks). TSan only judges the schedules it happens to see; this layer
// manufactures adversarial schedules on purpose, deterministically enough that
// any failure reproduces from a printed seed.
//
// Two injection families:
//
//   * Schedule perturbation (`Perturb`, `StealBias`): at every hand-off
//     boundary, probabilistically sched_yield() the kernel thread, spin-delay
//     it, or bias a wake off its affine shard so the stealing machinery churns.
//     Delays and yields are legal at every hook point (they only stretch time,
//     including inside spinlock critical sections — exactly the "holder
//     preempted mid-section" schedule that is otherwise rare).
//   * Syscall fault injection (`Fault`, `ShortTransfer`): the io/net/futex
//     kernel-wait wrappers consult a shim that simulates EINTR/EAGAIN/spurious
//     wakeups and short reads/writes, exercising every retry loop the
//     netpoller and the shared-sync futex protocols rely on. Faults are chosen
//     so the operation's observable semantics are preserved (the retry loop
//     absorbs them); `short` transfers are visible to callers and are only for
//     harnesses whose callers already loop.
//
// Configuration: SUNMT_INJECT=seed=N,rate=P,ops=yield|delay|steal|fault|short
// (ops=all for everything), or Inject via Configure() from a test. Decisions
// come from a per-kernel-thread (i.e. per-LWP) SplitMix64 stream derived from
// the seed, so a sweep over seeds explores distinct interleavings and a
// failing seed replays the same decision stream per thread.
//
// Compiled in always, zero-cost when disabled: every hook is one relaxed load
// of a global ops mask and a predicted-not-taken branch. This header includes
// only standard headers so src/util/spinlock.h can hook Lock()/Unlock(); the
// slow paths live in inject.cc, which records each delivered perturbation or
// fault in the trace ring (TraceEvent::kInject) itself.

#ifndef SUNMT_SRC_INJECT_INJECT_H_
#define SUNMT_SRC_INJECT_INJECT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sunmt {
namespace inject {

// Hook points: every cross-thread hand-off boundary in the package, plus the
// kernel-wait wrappers. Used for accounting/trace and to vary the per-point
// random stream.
enum Point : uint8_t {
  kSpinLockAcquire = 0,  // SpinLock::Lock entry (before the exchange)
  kSpinLockRelease,      // SpinLock::Unlock (before the releasing store)
  kSchedBlock,           // sched::Block, queue lock held, pre context-save
  kSchedWake,            // sched::Wake entry (waiter dequeued, not yet runnable)
  kRunQueuePush,         // ShardedRunQueue::Enqueue entry
  kRunQueueSteal,        // ShardedRunQueue::Steal entry
  kBoxCas,               // next-box exchange (TakeBox)
  kFutexWait,            // FutexWait wrapper (also a fault point)
  kFutexWake,            // FutexWake wrapper
  kTimerCallback,        // timer engine, immediately before a callback fires
  kKernelWait,           // KernelWaitScope construction
  kNetSyscall,           // net_read/net_write/net_accept syscall attempt (fault)
  kNetWaitReady,         // NetPoller::WaitReady entry (fault: spurious ready)
  kIoSyscall,            // io_* blocking wrapper syscall attempt (fault)
  kStackMagazine,        // stack-cache magazine refill/flush (depot hand-off)
  kObjectCache,          // object-cache magazine refill/flush (depot hand-off)
  kRegistryShard,        // thread-registry shard lookup/iteration entry
  kLockdep,              // lockdep order-check / pre-block walk (SUNMT_DEBUG)
  kTimerWheel,           // timer-wheel sweep (shard lock held) & cancel entry
  kPointCount,
};

const char* PointName(Point p);

// Injection families, or'able into the ops mask.
enum : uint32_t {
  kOpYield = 1u << 0,  // sched_yield() the kernel thread at hook points
  kOpDelay = 1u << 1,  // spin-delay at hook points
  kOpSteal = 1u << 2,  // bias wakes off their affine shard (forces steals)
  kOpFault = 1u << 3,  // semantics-preserving syscall faults (EINTR/EAGAIN/
                       // spurious wake), absorbed by the wrappers' retry loops
  kOpShort = 1u << 4,  // short reads/writes (visible: callers must loop)
  kOpAll = kOpYield | kOpDelay | kOpSteal | kOpFault | kOpShort,
};

namespace internal {

// The single word every disabled hook loads. Nonzero iff injection is active.
extern std::atomic<uint32_t> g_ops;

void PerturbSlow(Point p);
bool StealBiasSlow(Point p);
bool FaultSlow(Point p);
size_t ShortTransferSlow(Point p, size_t count);

inline uint32_t Ops() { return g_ops.load(std::memory_order_relaxed); }

}  // namespace internal

// True while any injection family is configured on.
inline bool Enabled() { return internal::Ops() != 0; }

// Schedule-perturbation hook: with probability `rate`, yields or spin-delays
// the calling kernel thread. Safe anywhere (including while holding package
// spinlocks and from signal-handler-safe paths): it only burns time.
inline void Perturb(Point p) {
  if (__builtin_expect((internal::Ops() & (kOpYield | kOpDelay)) != 0, 0)) {
    internal::PerturbSlow(p);
  }
}

// True when this wake/placement should be diverted off its affine shard.
inline bool StealBias(Point p) {
  if (__builtin_expect((internal::Ops() & kOpSteal) != 0, 0)) {
    return internal::StealBiasSlow(p);
  }
  return false;
}

// True when the calling wrapper should simulate a transient syscall fault
// (EINTR / EAGAIN / spurious wakeup) instead of performing the syscall.
inline bool Fault(Point p) {
  if (__builtin_expect((internal::Ops() & kOpFault) != 0, 0)) {
    return internal::FaultSlow(p);
  }
  return false;
}

// Possibly clamps a transfer size to simulate a short read/write (never below
// 1 byte). Identity when the `short` op is off.
inline size_t ShortTransfer(Point p, size_t count) {
  if (__builtin_expect((internal::Ops() & kOpShort) != 0, 0) && count > 1) {
    return internal::ShortTransferSlow(p, count);
  }
  return count;
}

// ---- Configuration -----------------------------------------------------------

// Enables injection with an explicit seed, per-hook firing probability in
// [0, 1], and ops mask. Replaces any previous configuration (per-thread
// decision streams restart from the new seed).
void Configure(uint64_t seed, double rate, uint32_t ops);

// Turns every hook back into the one-load fast path. Counters are kept.
void Disable();

// Parses a SUNMT_INJECT-style spec ("seed=7,rate=0.05,ops=yield|delay") and
// applies it. Empty/ill-formed specs disable injection and return false.
bool ConfigureFromSpec(const char* spec);

// ---- Introspection -----------------------------------------------------------

struct Counters {
  bool configured;  // Configure() ran at least once this process
  bool enabled;     // injection currently on
  uint64_t seed;
  double rate;
  uint32_t ops;
  uint64_t yields;        // sched_yield perturbations delivered
  uint64_t delays;        // spin-delay perturbations delivered
  uint64_t steal_biases;  // wakes diverted off their affine shard
  uint64_t faults;        // simulated syscall faults
  uint64_t shorts;        // clamped transfers
};

Counters Snapshot();

}  // namespace inject
}  // namespace sunmt

#endif  // SUNMT_SRC_INJECT_INJECT_H_
