// Runtime metrics: sharded counters and latency histograms.
//
// Everything here is built for hot paths that run on every dispatch and every
// lock acquisition:
//
//   * `ShardedCounter` spreads increments over kStatsShards cache-line-aligned
//     slots indexed by a per-kernel-thread (i.e. per-LWP) shard, so two LWPs
//     bumping `dispatches` never ping-pong a cache line.
//   * `Stats::RecordNs(stat, ns)` drops a sample into the calling LWP's shard
//     of a global log2-bucket histogram (see histogram.h); shards are merged
//     only at read time by Snapshot().
//   * When stats are disabled (the default), every instrumentation site
//     compiles to one inline relaxed load and a predictable branch; no clock
//     is read.
//
// This layer depends only on src/util so the LWP layer may use it.

#ifndef SUNMT_SRC_STATS_STATS_H_
#define SUNMT_SRC_STATS_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/stats/histogram.h"

namespace sunmt {

// Shard count: power of two, comfortably above the LWP pool sizes this runtime
// uses. More shards than LWPs just wastes a little cold memory.
inline constexpr int kStatsShards = 16;

namespace stats_internal {

extern std::atomic<bool> g_enabled;
extern std::atomic<uint32_t> g_next_shard;

// Raw round-robin shard token, assigned once per kernel thread. LWPs are
// kernel threads, so this is per-LWP on every path the runtime owns. Sharded
// subsystems reduce it by their own shard count (stats masks by kStatsShards
// below; the timer wheel mods by its fixed shard count).
inline uint32_t ShardToken() {
  thread_local uint32_t token =
      g_next_shard.fetch_add(1, std::memory_order_relaxed);
  return token;
}

inline int ShardIndex() {
  return static_cast<int>(ShardToken() & (kStatsShards - 1));
}

}  // namespace stats_internal

// The distributions the runtime tracks. Values are nanoseconds except
// kRunQueueDepth (a dimensionless queue length sampled at each dispatch).
enum class LatencyStat : uint8_t {
  kDispatchLatency,    // wake (MakeRunnable) -> first instruction on an LWP
  kRunQueueDepth,      // run-queue length at dispatch time
  kRunQueueLockWait,   // contended run-queue spinlock acquisitions (ns); an
                       // uncontended TryLock records nothing
  kMutexWaitAdaptive,  // contention wait, default/adaptive local mutex
  kMutexWaitAdaptiveSpin,   // subset of the above resolved by spinning (owner
                            // stayed ON-PROC and released within the budget)
  kMutexWaitAdaptiveBlock,  // subset resolved by blocking the thread (owner
                            // observed off-proc, or the spin budget ran out)
  kMutexWaitSpin,      // contention wait, SYNC_SPIN mutex
  kMutexWaitDebug,     // contention wait, SYNC_DEBUG mutex
  kMutexWaitShared,    // contention wait, THREAD_SYNC_SHARED mutex (futex)
  kMutexHoldAdaptive,  // enter -> exit hold time, by the same variant key
  kMutexHoldSpin,
  kMutexHoldDebug,
  kMutexHoldShared,
  kRwlockWaitLocal,    // reader+writer block time, process-local rwlock
  kRwlockWaitShared,   // reader+writer futex wait, shared rwlock
  kSemaWaitLocal,      // sema_p block time, process-local semaphore
  kSemaWaitShared,     // sema_p futex wait, shared semaphore
  kCondvarWaitLocal,   // cv_wait block time, process-local condvar
  kCondvarWaitShared,  // cv_wait futex wait, shared condvar
  kKernelWait,         // LWP blocked in the kernel (KernelWaitScope)
  kNetReadinessWait,   // thread parked on fd readiness (src/net WaitReady)
  kNetEpollBatch,      // events per nonempty epoll_wait drain (dimensionless)
  kCount,
};

const char* LatencyStatName(LatencyStat stat);

// True for stats whose samples are nanoseconds (formatted as durations);
// false for dimensionless ones like run-queue depth.
bool LatencyStatIsDuration(LatencyStat stat);

class Stats {
 public:
  static void Enable();
  static void Disable();

  // The one load every instrumentation site pays when stats are off.
  static bool Enabled() {
    return stats_internal::g_enabled.load(std::memory_order_relaxed);
  }

  // Records a duration sample (clamped at 0) into the caller's shard.
  // Callers normally guard with Enabled() so the clock read is skipped when
  // off; Record* also self-guards for safety.
  static void RecordNs(LatencyStat stat, int64_t ns);
  // Records a dimensionless sample (e.g. queue depth).
  static void RecordValue(LatencyStat stat, uint64_t value);

  // Merges all shards of `stat` into *out (accumulates; zero *out first for a
  // fresh snapshot). Safe concurrently with writers.
  static void Snapshot(LatencyStat stat, HistogramSnapshot* out);

  // Clears every histogram shard. Not linearizable against concurrent
  // writers; meant for tests and between benchmark phases.
  static void Reset();
};

// Renders every non-empty histogram as a quantile table
// (COUNT / P50 / P90 / P99 / MAX / MEAN), durations human-scaled. Counters
// (object caches, lockdep) print once, in FormatProcessState().
std::string FormatStats();

// A monotonically increasing event counter, sharded to keep concurrent
// increments off each other's cache lines. Load() is a full sweep — cheap,
// but meant for snapshots, not hot paths.
class ShardedCounter {
 public:
  void Inc(uint64_t n = 1) {
    slots_[stats_internal::ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Load() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kStatsShards];
};

}  // namespace sunmt

#endif  // SUNMT_SRC_STATS_STATS_H_
