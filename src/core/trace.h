// Scheduler event tracing.
//
// The paper's debugging story is "cooperation between the debugger and the
// threads library": the library must be able to tell an external observer what
// its invisible-to-the-kernel threads are doing. This is the other half of that
// cooperation (src/introspect gives state snapshots; this gives history): a
// lock-free ring of scheduler and sync events — dispatches, blocks, wakes,
// yields, preemptions, creations, exits, signal deliveries, lock waits — cheap
// enough to leave on around a failure and dump post-mortem, or export as a
// Chrome trace for timeline analysis.
//
// Disabled by default; Record() is one relaxed load when off.
//
// NOTE: this header includes only standard headers, so any file of the
// library may record events (src/lwp's kernel-wait scope, the injector,
// lockdep) without pulling in the scheduler's headers.

#ifndef SUNMT_SRC_CORE_TRACE_H_
#define SUNMT_SRC_CORE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sunmt {

enum class TraceEvent : uint8_t {
  kDispatch = 1,  // thread placed onto an LWP          arg = lwp id
  kYield,         // thread yielded voluntarily
  kPreempt,       // timeslice forced the yield
  kBlock,         // thread blocked on a sleep queue
  kWake,          // thread made runnable               arg = waker thread (0 unknown)
  kStop,          // thread stopped (thread_stop)
  kContinue,      // thread continued
  kCreate,        // thread created                     arg = creator thread
  kExit,          // thread exited
  kSignal,        // signal delivered to thread         arg = signal number
  kSigwaiting,    // pool grown by the watchdog         arg = new pool size
  kMutexWait,     // mutex contention wait finished     arg = wait ns
  kRwWait,        // rwlock contention wait finished    arg = wait ns
  kSemaWait,      // sema_p block finished              arg = wait ns
  kCvWait,        // cv_wait block finished             arg = wait ns
  kKernelWait,    // LWP returned from a kernel wait    subject = LWP id, arg = wait ns
  kNetPark,       // thread parked on fd readiness      arg = fd
  kNetWake,       // readiness wake delivered           arg = wait ns
  kSteal,         // work stolen between scheduler shards
                  //   subject = thief shard, arg = (count << 32) | victim shard
  kInject,        // shakedown perturbation/fault delivered
                  //   arg = (op bit << 32) | inject::Point
  kLockdep,       // lockdep report (inversion or deadlock)
                  //   subject = reporting thread,
                  //   arg = (report kind << 32) | (from class << 16) | to class
};

struct TraceRecord {
  int64_t time_ns;     // monotonic timestamp
  uint64_t thread_id;  // subject thread (LWP id for kKernelWait)
  uint64_t arg;        // event-specific (see above)
  TraceEvent event;
};

class Trace {
 public:
  // Starts recording into a ring of `capacity` records (rounded up to a power
  // of two; older records are overwritten when full). May be called while
  // already enabled: re-enabling with the same capacity resets the ring in
  // place, a different capacity installs a fresh ring.
  static void Enable(size_t capacity = 16384);
  static void Disable();
  static bool IsEnabled();

  // Monotonic timestamp of the most recent Enable(), 0 if never enabled.
  static int64_t EnableTimeNs();

  // Appends an event (no-op when disabled). Safe from any thread, lock-free.
  // The ring is lossy: a writer whose slot another writer still holds (one
  // delayed a whole lap) drops its record rather than share the slot.
  static void Record(TraceEvent event, uint64_t thread_id, uint64_t arg);

  // Copies out everything currently recorded, in timestamp order. Records
  // that were mid-write during the copy (or predate a concurrent re-Enable)
  // are skipped. Returns the number copied.
  static size_t Collect(std::vector<TraceRecord>* out);

  // Human-readable rendering of Collect(): one event per line, timestamps in
  // microseconds since the last Enable().
  static std::string Format();

  // Chrome trace_event JSON ("catapult" format) of everything currently in
  // the ring: one track per LWP showing which thread it ran (with kernel
  // waits), one track per thread showing lock/cv waits, thread lifetimes as
  // async spans. Load via chrome://tracing or https://ui.perfetto.dev.
  static std::string ExportChromeJson();

  // Total events recorded since Enable (including overwritten ones).
  static uint64_t RecordedCount();
};

const char* TraceEventName(TraceEvent event);

}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_TRACE_H_
