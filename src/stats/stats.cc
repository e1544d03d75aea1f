#include "src/stats/stats.h"

#include <cstdio>

namespace sunmt {
namespace stats_internal {

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_shard{0};

namespace {

constexpr int kStatCount = static_cast<int>(LatencyStat::kCount);

struct alignas(64) HistogramShard {
  Histogram hists[kStatCount];
};

// Global histogram storage: shard-major so one LWP's writes across different
// stats stay in its own shard's lines.
HistogramShard g_shards[kStatsShards];

}  // namespace
}  // namespace stats_internal

using stats_internal::g_shards;
using stats_internal::kStatCount;

void Stats::Enable() {
  stats_internal::g_enabled.store(true, std::memory_order_release);
}

void Stats::Disable() {
  stats_internal::g_enabled.store(false, std::memory_order_release);
}

void Stats::RecordNs(LatencyStat stat, int64_t ns) {
  if (!Enabled()) {
    return;
  }
  g_shards[stats_internal::ShardIndex()]
      .hists[static_cast<int>(stat)]
      .RecordNs(ns);
}

void Stats::RecordValue(LatencyStat stat, uint64_t value) {
  if (!Enabled()) {
    return;
  }
  g_shards[stats_internal::ShardIndex()]
      .hists[static_cast<int>(stat)]
      .Record(value);
}

void Stats::Snapshot(LatencyStat stat, HistogramSnapshot* out) {
  for (int s = 0; s < kStatsShards; ++s) {
    out->Accumulate(g_shards[s].hists[static_cast<int>(stat)]);
  }
}

void Stats::Reset() {
  for (int s = 0; s < kStatsShards; ++s) {
    for (int i = 0; i < kStatCount; ++i) {
      g_shards[s].hists[i].Reset();
    }
  }
}

const char* LatencyStatName(LatencyStat stat) {
  switch (stat) {
    case LatencyStat::kDispatchLatency:
      return "dispatch_latency";
    case LatencyStat::kRunQueueDepth:
      return "run_queue_depth";
    case LatencyStat::kRunQueueLockWait:
      return "run_queue_lock_wait";
    case LatencyStat::kMutexWaitAdaptive:
      return "mutex_wait_adaptive";
    case LatencyStat::kMutexWaitAdaptiveSpin:
      return "mutex_wait_adaptive_spin";
    case LatencyStat::kMutexWaitAdaptiveBlock:
      return "mutex_wait_adaptive_block";
    case LatencyStat::kMutexWaitSpin:
      return "mutex_wait_spin";
    case LatencyStat::kMutexWaitDebug:
      return "mutex_wait_debug";
    case LatencyStat::kMutexWaitShared:
      return "mutex_wait_shared";
    case LatencyStat::kMutexHoldAdaptive:
      return "mutex_hold_adaptive";
    case LatencyStat::kMutexHoldSpin:
      return "mutex_hold_spin";
    case LatencyStat::kMutexHoldDebug:
      return "mutex_hold_debug";
    case LatencyStat::kMutexHoldShared:
      return "mutex_hold_shared";
    case LatencyStat::kRwlockWaitLocal:
      return "rwlock_wait_local";
    case LatencyStat::kRwlockWaitShared:
      return "rwlock_wait_shared";
    case LatencyStat::kSemaWaitLocal:
      return "sema_wait_local";
    case LatencyStat::kSemaWaitShared:
      return "sema_wait_shared";
    case LatencyStat::kCondvarWaitLocal:
      return "condvar_wait_local";
    case LatencyStat::kCondvarWaitShared:
      return "condvar_wait_shared";
    case LatencyStat::kKernelWait:
      return "kernel_wait";
    case LatencyStat::kNetReadinessWait:
      return "net.readiness_wait";
    case LatencyStat::kNetEpollBatch:
      return "net.epoll_batch";
    case LatencyStat::kCount:
      break;
  }
  return "?";
}

bool LatencyStatIsDuration(LatencyStat stat) {
  return stat != LatencyStat::kRunQueueDepth &&
         stat != LatencyStat::kNetEpollBatch;
}

namespace {

// Duration values are nanoseconds; scale to whatever unit keeps 3 significant
// digits readable. Dimensionless values print as plain numbers.
void FormatCell(char* buf, size_t len, double v, bool duration) {
  if (!duration) {
    snprintf(buf, len, "%.0f", v);
    return;
  }
  if (v >= 1e9) {
    snprintf(buf, len, "%.2fs", v / 1e9);
  } else if (v >= 1e6) {
    snprintf(buf, len, "%.2fms", v / 1e6);
  } else if (v >= 1e3) {
    snprintf(buf, len, "%.2fus", v / 1e3);
  } else {
    snprintf(buf, len, "%.0fns", v);
  }
}

}  // namespace

std::string FormatStats() {
  std::string out = "STATS\n";
  char line[192];
  snprintf(line, sizeof(line), "  %-22s %10s %9s %9s %9s %9s %9s\n", "STAT",
           "COUNT", "P50", "P90", "P99", "MAX", "MEAN");
  out += line;
  bool any = false;
  for (int i = 0; i < kStatCount; ++i) {
    LatencyStat stat = static_cast<LatencyStat>(i);
    HistogramSnapshot snap;
    Stats::Snapshot(stat, &snap);
    if (snap.count == 0) {
      continue;
    }
    any = true;
    bool dur = LatencyStatIsDuration(stat);
    char p50[32], p90[32], p99[32], mx[32], mean[32];
    FormatCell(p50, sizeof(p50), snap.Quantile(0.50), dur);
    FormatCell(p90, sizeof(p90), snap.Quantile(0.90), dur);
    FormatCell(p99, sizeof(p99), snap.Quantile(0.99), dur);
    FormatCell(mx, sizeof(mx), static_cast<double>(snap.max), dur);
    FormatCell(mean, sizeof(mean), snap.Mean(), dur);
    snprintf(line, sizeof(line),
             "  %-22s %10llu %9s %9s %9s %9s %9s\n", LatencyStatName(stat),
             static_cast<unsigned long long>(snap.count), p50, p90, p99, mx,
             mean);
    out += line;
  }
  if (!any) {
    out += "  (no samples)\n";
  }
  return out;
}

}  // namespace sunmt
