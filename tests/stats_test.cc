// Tests for the runtime metrics subsystem (src/stats) and its wiring into the
// scheduler and sync layers, including the Chrome-trace export.

#include <errno.h>
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread.h"
#include "src/core/trace.h"
#include "src/introspect/introspect.h"
#include "src/stats/histogram.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  // Each power of two opens a new bucket: bucket b covers [2^(b-1), 2^b).
  for (int k = 0; k < 62; ++k) {
    uint64_t v = uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(v), k + 1) << "v=2^" << k;
    EXPECT_EQ(Histogram::BucketIndex(v + (v >> 1)), k + 1);
  }
  // The top bucket absorbs everything that would overflow the table.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 63);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 63), 63);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(10), 512u);
}

TEST(HistogramTest, RecordAndSnapshot) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_EQ(h.Sum(), 500500u);

  HistogramSnapshot snap;
  snap.Accumulate(h);
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
  // Uniform 1..1000: the true median is 500.5; log2 buckets put sample #500
  // in bucket [256,512), so the estimate lands in that range.
  double p50 = snap.Quantile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  // Quantiles never exceed the tracked exact max.
  EXPECT_LE(snap.Quantile(0.999), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantileEmptyAndNegative) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  Histogram h;
  h.RecordNs(-5);  // clamped to 0
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Record(10);
  a.Record(100);
  b.Record(1000);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 4u);
  EXPECT_EQ(a.Max(), 1000u);
  EXPECT_EQ(a.Sum(), 1113u);
  // Merge is additive on buckets, not overwriting.
  Histogram c;
  c.Record(10);
  a.Merge(c);
  EXPECT_EQ(a.Count(), 5u);
}

TEST(HistogramTest, ConcurrentRecord) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  Histogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i) % 4096);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Lock-free writers lose nothing: exact count and sum.
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<uint64_t>(t * kPerThread + i) % 4096;
    }
  }
  EXPECT_EQ(h.Sum(), expected_sum);
  EXPECT_EQ(h.Max(), 4095u);
}

TEST(ShardedCounterTest, ConcurrentInc) {
  ShardedCounter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.Load(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(StatsTest, DisabledRecordsNothing) {
  Stats::Disable();
  Stats::Reset();
  Stats::RecordNs(LatencyStat::kDispatchLatency, 123);
  HistogramSnapshot snap;
  Stats::Snapshot(LatencyStat::kDispatchLatency, &snap);
  EXPECT_EQ(snap.count, 0u);
}

TEST(StatsTest, EnableRecordSnapshotReset) {
  Stats::Enable();
  Stats::Reset();
  Stats::RecordNs(LatencyStat::kMutexWaitSpin, 50);
  Stats::RecordNs(LatencyStat::kMutexWaitSpin, 5000);
  HistogramSnapshot snap;
  Stats::Snapshot(LatencyStat::kMutexWaitSpin, &snap);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max, 5000u);
  // Other stats are untouched.
  HistogramSnapshot other;
  Stats::Snapshot(LatencyStat::kSemaWaitLocal, &other);
  EXPECT_EQ(other.count, 0u);
  Stats::Reset();
  HistogramSnapshot after;
  Stats::Snapshot(LatencyStat::kMutexWaitSpin, &after);
  EXPECT_EQ(after.count, 0u);
  Stats::Disable();
}

TEST(StatsTest, ShardsMergeAcrossKernelThreads) {
  Stats::Enable();
  Stats::Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        Stats::RecordNs(LatencyStat::kKernelWait, 100);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  HistogramSnapshot snap;
  Stats::Snapshot(LatencyStat::kKernelWait, &snap);
  EXPECT_EQ(snap.count, 4000u);
  Stats::Reset();
  Stats::Disable();
}

TEST(StatsTest, NamesAndKinds) {
  for (int i = 0; i < static_cast<int>(LatencyStat::kCount); ++i) {
    LatencyStat s = static_cast<LatencyStat>(i);
    EXPECT_STRNE(LatencyStatName(s), "?") << i;
  }
  EXPECT_FALSE(LatencyStatIsDuration(LatencyStat::kRunQueueDepth));
  EXPECT_TRUE(LatencyStatIsDuration(LatencyStat::kDispatchLatency));
}

TEST(StatsTest, FormatStatsRendersQuantileTable) {
  Stats::Enable();
  Stats::Reset();
  for (int i = 0; i < 100; ++i) {
    Stats::RecordNs(LatencyStat::kDispatchLatency, 1000 + i);
  }
  std::string table = FormatStats();
  EXPECT_NE(table.find("STATS"), std::string::npos);
  EXPECT_NE(table.find("P50"), std::string::npos);
  EXPECT_NE(table.find("P99"), std::string::npos);
  EXPECT_NE(table.find("dispatch_latency"), std::string::npos);
  // Empty stats are not rendered.
  EXPECT_EQ(table.find("rwlock_wait_local"), std::string::npos);
  Stats::Reset();
  Stats::Disable();
}

// ---- End-to-end: scheduler + mutex instrumentation --------------------------

struct ContentionCtx {
  mutex_t mu = {};
  sema_t ready = {};
  std::atomic<thread_id_t> contender{0};
  std::atomic<bool> attempting{false};
  std::atomic<bool> holder_done{false};
};

// Holder: takes the mutex, lets the contender know, then dawdles inside the
// critical section until the contender has announced its lock attempt and
// blocked on the mutex, so the contender measurably waits regardless of how
// slowly it gets scheduled (sanitizer and lockdep builds can stall it past
// any fixed yield count).
void HolderThread(void* arg) {
  auto* ctx = static_cast<ContentionCtx*>(arg);
  mutex_enter(&ctx->mu);
  sema_v(&ctx->ready);
  while (!ctx->attempting.load(std::memory_order_acquire)) {
    thread_yield();
  }
  // The contender has left sema_p, so its next block is on the mutex.
  sunmt_test::WaitForState(ctx->contender.load(), "BLOCKED",
                           5'000'000'000ll);
  mutex_exit(&ctx->mu);
  ctx->holder_done.store(true, std::memory_order_release);
}

void ContenderThread(void* arg) {
  auto* ctx = static_cast<ContentionCtx*>(arg);
  sema_p(&ctx->ready);  // wait until the holder owns the mutex
  ctx->contender.store(thread_get_id());
  ctx->attempting.store(true, std::memory_order_release);
  mutex_enter(&ctx->mu);
  mutex_exit(&ctx->mu);
}

TEST(StatsTest, EndToEndSchedulerAndMutexHistograms) {
  Stats::Enable();
  Stats::Reset();
  static ContentionCtx ctx;  // zero-init = default adaptive local mutex

  thread_id_t holder = thread_create(nullptr, 0, &HolderThread, &ctx, THREAD_WAIT);
  thread_id_t contender =
      thread_create(nullptr, 0, &ContenderThread, &ctx, THREAD_WAIT);
  ASSERT_NE(holder, 0u);
  ASSERT_NE(contender, 0u);
  EXPECT_EQ(thread_wait(holder), holder);
  EXPECT_EQ(thread_wait(contender), contender);

  HistogramSnapshot dispatch;
  Stats::Snapshot(LatencyStat::kDispatchLatency, &dispatch);
  EXPECT_GT(dispatch.count, 0u) << "dispatches must produce wake->run samples";

  HistogramSnapshot wait;
  Stats::Snapshot(LatencyStat::kMutexWaitAdaptive, &wait);
  EXPECT_GT(wait.count, 0u) << "the contender must have recorded a mutex wait";

  HistogramSnapshot hold;
  Stats::Snapshot(LatencyStat::kMutexHoldAdaptive, &hold);
  EXPECT_GE(hold.count, 2u) << "both critical sections record hold times";

  HistogramSnapshot depth;
  Stats::Snapshot(LatencyStat::kRunQueueDepth, &depth);
  EXPECT_GT(depth.count, 0u);

  // The quantile table shows the distributions.
  std::string table = FormatStats();
  EXPECT_NE(table.find("mutex_wait_adaptive"), std::string::npos);
  EXPECT_NE(table.find("dispatch_latency"), std::string::npos);

  // FormatProcessState() appends the stats section while enabled.
  std::string state = FormatProcessState();
  EXPECT_NE(state.find("STATS"), std::string::npos);

  Stats::Reset();
  Stats::Disable();
}

// A timed wait is the ordinary wait plus a timer, so it records the same one
// sample whether it is woken or times out; a sleep is no sync wait at all.
TEST(StatsTest, TimedWaitsRecordOneSampleAndSleepsNone) {
  Stats::Enable();
  Stats::Reset();
  auto samples = [](LatencyStat stat) {
    HistogramSnapshot snap;
    Stats::Snapshot(stat, &snap);
    return snap.count;
  };
  constexpr int64_t kWaitNs = 5 * 1000 * 1000;

  thread_sleep_ns(kWaitNs);
  EXPECT_EQ(samples(LatencyStat::kSemaWaitLocal), 0u);
  EXPECT_EQ(samples(LatencyStat::kCondvarWaitLocal), 0u);

  sema_t sema = {};
  EXPECT_EQ(sema_p_timed(&sema, kWaitNs), 0);  // blocks, then times out
  EXPECT_EQ(samples(LatencyStat::kSemaWaitLocal), 1u);

  mutex_t mu = {};
  condvar_t cv = {};
  mutex_enter(&mu);
  EXPECT_EQ(cv_timedwait(&cv, &mu, kWaitNs), ETIME);
  mutex_exit(&mu);
  EXPECT_EQ(samples(LatencyStat::kCondvarWaitLocal), 1u);
  EXPECT_EQ(samples(LatencyStat::kSemaWaitLocal), 1u);

  Stats::Reset();
  Stats::Disable();
}

// ---- Chrome trace export ----------------------------------------------------

// Minimal recursive-descent JSON validator: structure only, no value
// interpretation. Returns true iff the whole string is one valid JSON value.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Validate() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    size_t n = strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

void TracedWorker(void* arg) {
  auto* ctx = static_cast<ContentionCtx*>(arg);
  mutex_enter(&ctx->mu);
  thread_yield();
  mutex_exit(&ctx->mu);
}

TEST(StatsTest, ChromeJsonExportIsValid) {
  Trace::Enable(1024);
  static ContentionCtx ctx;
  thread_id_t a = thread_create(nullptr, 0, &TracedWorker, &ctx, THREAD_WAIT);
  thread_id_t b = thread_create(nullptr, 0, &TracedWorker, &ctx, THREAD_WAIT);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  thread_wait(a);
  thread_wait(b);

  std::string json = Trace::ExportChromeJson();
  Trace::Disable();

  EXPECT_TRUE(JsonValidator(json).Validate()) << json.substr(0, 2000);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // LWP tracks and thread lifetime spans are present.
  EXPECT_NE(json.find("\"name\":\"lwps\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"LWP "), std::string::npos);
}

TEST(StatsTest, ChromeJsonEmptyTraceIsValid) {
  Trace::Enable(16);
  std::string json = Trace::ExportChromeJson();
  Trace::Disable();
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
}

}  // namespace
}  // namespace sunmt
