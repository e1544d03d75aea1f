#include "src/inject/inject.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/trace.h"
#include "src/util/rng.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace inject {
namespace internal {

std::atomic<uint32_t> g_ops{0};

}  // namespace internal

namespace {

using internal::Ops;

// `rate` stored as a 32-bit threshold: a draw fires when its low word is below
// this. rate=1.0 maps to the all-ones threshold (fires always).
std::atomic<uint32_t> g_threshold{0};
std::atomic<uint64_t> g_seed{0};
std::atomic<uint64_t> g_rate_bits{0};  // double bit-pattern, for Snapshot()
std::atomic<uint32_t> g_epoch{0};      // bumped by Configure(): streams reseed
std::atomic<uint32_t> g_next_stream{0};
std::atomic<bool> g_configured{false};

std::atomic<uint64_t> c_yields{0};
std::atomic<uint64_t> c_delays{0};
std::atomic<uint64_t> c_steal_biases{0};
std::atomic<uint64_t> c_faults{0};
std::atomic<uint64_t> c_shorts{0};

// Per-kernel-thread decision stream. The stream id is assigned once per thread
// and survives reconfiguration, so with a fixed LWP pool the same seed replays
// the same decision sequence on each thread. `busy` guards against reentry
// (e.g. a hook reached from inside an injected action's own locking).
struct ThreadStream {
  SplitMix64 rng{0};
  uint32_t epoch = ~0u;
  uint32_t id = 0;
  bool busy = false;
};

thread_local ThreadStream t_stream;

ThreadStream& Stream() {
  ThreadStream& ts = t_stream;
  uint32_t epoch = g_epoch.load(std::memory_order_acquire);
  if (__builtin_expect(ts.epoch != epoch, 0)) {
    if (ts.id == 0) {
      ts.id = g_next_stream.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    // Distinct, well-mixed stream per thread: golden-ratio stride by stream id.
    ts.rng = SplitMix64(g_seed.load(std::memory_order_relaxed) +
                        0x9e3779b97f4a7c15ull * ts.id);
    ts.epoch = epoch;
  }
  return ts;
}

// One decision: fires when the draw's low word clears the rate threshold.
// The high word (returned via *extra) parameterizes the action.
bool Draw(ThreadStream& ts, uint32_t* extra) {
  uint64_t r = ts.rng.Next();
  *extra = static_cast<uint32_t>(r >> 32);
  return static_cast<uint32_t>(r) < g_threshold.load(std::memory_order_relaxed);
}

// INJECT trace events carry (op bit, point).
void RecordInject(Point p, uint32_t op) {
  Trace::Record(TraceEvent::kInject, /*thread_id=*/0,
                (static_cast<uint64_t>(op) << 32) | p);
}

}  // namespace

namespace internal {

void PerturbSlow(Point p) {
  ThreadStream& ts = Stream();
  if (ts.busy) {
    return;
  }
  uint32_t extra;
  if (!Draw(ts, &extra)) {
    return;
  }
  ts.busy = true;
  uint32_t ops = Ops() & (kOpYield | kOpDelay);
  bool do_yield = (ops == (kOpYield | kOpDelay)) ? (extra & 1) != 0
                                                 : (ops & kOpYield) != 0;
  if (do_yield) {
    c_yields.fetch_add(1, std::memory_order_relaxed);
    RecordInject(p, kOpYield);
    sched_yield();
  } else {
    c_delays.fetch_add(1, std::memory_order_relaxed);
    RecordInject(p, kOpDelay);
    // 64..~2k relax iterations: long enough to open hand-off windows (another
    // thread observing the half-completed state), short enough that a sweep of
    // thousands of firings stays in test-timeout budget.
    uint32_t spins = 64 + ((extra >> 1) & 2047);
    for (uint32_t i = 0; i < spins; ++i) {
      CpuRelax();
    }
  }
  ts.busy = false;
}

bool StealBiasSlow(Point p) {
  ThreadStream& ts = Stream();
  if (ts.busy) {
    return false;
  }
  uint32_t extra;
  if (!Draw(ts, &extra)) {
    return false;
  }
  c_steal_biases.fetch_add(1, std::memory_order_relaxed);
  RecordInject(p, kOpSteal);
  return true;
}

bool FaultSlow(Point p) {
  ThreadStream& ts = Stream();
  if (ts.busy) {
    return false;
  }
  uint32_t extra;
  if (!Draw(ts, &extra)) {
    return false;
  }
  c_faults.fetch_add(1, std::memory_order_relaxed);
  RecordInject(p, kOpFault);
  return true;
}

size_t ShortTransferSlow(Point p, size_t count) {
  ThreadStream& ts = Stream();
  if (ts.busy) {
    return count;
  }
  uint32_t extra;
  if (!Draw(ts, &extra)) {
    return count;
  }
  c_shorts.fetch_add(1, std::memory_order_relaxed);
  RecordInject(p, kOpShort);
  return 1 + extra % (count - 1);  // uniform in [1, count-1]
}

}  // namespace internal

const char* PointName(Point p) {
  switch (p) {
    case kSpinLockAcquire: return "spinlock.acquire";
    case kSpinLockRelease: return "spinlock.release";
    case kSchedBlock:      return "sched.block";
    case kSchedWake:       return "sched.wake";
    case kRunQueuePush:    return "runq.push";
    case kRunQueueSteal:   return "runq.steal";
    case kBoxCas:          return "runq.box";
    case kFutexWait:       return "futex.wait";
    case kFutexWake:       return "futex.wake";
    case kTimerCallback:   return "timer.callback";
    case kKernelWait:      return "kernel.wait";
    case kNetSyscall:      return "net.syscall";
    case kNetWaitReady:    return "net.wait_ready";
    case kIoSyscall:       return "io.syscall";
    case kStackMagazine:   return "stack.magazine";
    case kObjectCache:     return "objcache.magazine";
    case kRegistryShard:   return "registry.shard";
    case kLockdep:         return "lockdep.check";
    case kTimerWheel:      return "timer.wheel";
    case kPointCount:      break;
  }
  return "?";
}

void Configure(uint64_t seed, double rate, uint32_t ops) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  uint32_t threshold = rate >= 1.0
                           ? 0xffffffffu
                           : static_cast<uint32_t>(rate * 4294967296.0);
  // Quiesce hooks while the stream parameters change, then bump the epoch so
  // every thread reseeds before its next decision.
  internal::g_ops.store(0, std::memory_order_relaxed);
  g_seed.store(seed, std::memory_order_relaxed);
  uint64_t rate_bits;
  std::memcpy(&rate_bits, &rate, sizeof(rate_bits));
  g_rate_bits.store(rate_bits, std::memory_order_relaxed);
  g_threshold.store(threshold, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_release);
  g_configured.store(true, std::memory_order_relaxed);
  internal::g_ops.store(ops, std::memory_order_release);
}

void Disable() { internal::g_ops.store(0, std::memory_order_release); }

bool ConfigureFromSpec(const char* spec) {
  if (spec == nullptr || *spec == '\0') {
    Disable();
    return false;
  }
  uint64_t seed = 1;
  double rate = 0.05;
  uint32_t ops = 0;
  bool ok = true;
  std::string s(spec);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    size_t end = (comma == std::string::npos) ? s.size() : comma;
    std::string tok = s.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) {
      continue;
    }
    size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      ok = false;
      break;
    }
    std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    if (key == "seed") {
      seed = strtoull(val.c_str(), nullptr, 0);
    } else if (key == "rate") {
      char* rest = nullptr;
      rate = strtod(val.c_str(), &rest);
      if (rest == val.c_str()) {
        ok = false;
        break;
      }
    } else if (key == "ops") {
      size_t opos = 0;
      while (opos < val.size()) {
        size_t bar = val.find('|', opos);
        size_t oend = (bar == std::string::npos) ? val.size() : bar;
        std::string op = val.substr(opos, oend - opos);
        opos = oend + 1;
        if (op == "yield") {
          ops |= kOpYield;
        } else if (op == "delay") {
          ops |= kOpDelay;
        } else if (op == "steal") {
          ops |= kOpSteal;
        } else if (op == "fault") {
          ops |= kOpFault;
        } else if (op == "short") {
          ops |= kOpShort;
        } else if (op == "all") {
          ops |= kOpAll;
        } else if (!op.empty()) {
          ok = false;
        }
      }
    } else {
      ok = false;
      break;
    }
  }
  if (!ok) {
    fprintf(stderr, "[sunmt-inject] bad SUNMT_INJECT spec: \"%s\"\n", spec);
    Disable();
    return false;
  }
  if (ops == 0) {
    // Unspecified ops: the schedule-perturbation family (always legal).
    ops = kOpYield | kOpDelay | kOpSteal;
  }
  Configure(seed, rate, ops);
  // One banner per process (programmatic sweeps announce seeds themselves), so
  // any failing run's log names the seed that reproduces it.
  fprintf(stderr, "[sunmt-inject] seed=%llu rate=%g ops=0x%x\n",
          static_cast<unsigned long long>(seed), rate, ops);
  return true;
}

Counters Snapshot() {
  Counters c;
  c.configured = g_configured.load(std::memory_order_relaxed);
  c.enabled = internal::g_ops.load(std::memory_order_relaxed) != 0;
  c.seed = g_seed.load(std::memory_order_relaxed);
  uint64_t rate_bits = g_rate_bits.load(std::memory_order_relaxed);
  std::memcpy(&c.rate, &rate_bits, sizeof(c.rate));
  c.ops = internal::g_ops.load(std::memory_order_relaxed);
  c.yields = c_yields.load(std::memory_order_relaxed);
  c.delays = c_delays.load(std::memory_order_relaxed);
  c.steal_biases = c_steal_biases.load(std::memory_order_relaxed);
  c.faults = c_faults.load(std::memory_order_relaxed);
  c.shorts = c_shorts.load(std::memory_order_relaxed);
  return c;
}

namespace {

// SUNMT_INJECT takes effect at load time (every binary links inject.cc via
// the hooks), so injection covers runtime bring-up as well.
struct EnvInit {
  EnvInit() {
    const char* env = getenv("SUNMT_INJECT");
    if (env != nullptr && *env != '\0') {
      ConfigureFromSpec(env);
    }
  }
} g_env_init;

}  // namespace

}  // namespace inject
}  // namespace sunmt
