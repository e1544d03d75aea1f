#include "src/core/trace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <map>
#include <set>

#include "src/debug/lockdep.h"
#include "src/inject/inject.h"
#include "src/util/clock.h"

namespace sunmt {
namespace {

// Each slot carries a sequence number (seqlock-style): even = stable, odd =
// being written. A writer takes a global ticket, which names its slot and lap,
// then claims the slot with one CAS on its sequence (see Record); readers skip
// slots whose sequence moved while copying. The payload fields are relaxed
// atomics bracketed by fences (the data-race-free seqlock recipe): racing
// accesses are intentional — the seq check discards torn reads — but must not
// be UB, and must be invisible to TSan.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> time_ns{0};
  std::atomic<uint64_t> thread_id{0};
  std::atomic<uint64_t> arg{0};
  std::atomic<uint8_t> event{0};
};

// One ring generation. `mask` and `slots` are immutable after construction so
// a writer or reader holding a RingBuf* can never see them change; re-Enable
// with a different capacity swaps the whole pointer instead.
struct RingBuf {
  explicit RingBuf(size_t capacity)
      : mask(capacity - 1), slots(new Slot[capacity]) {}
  const size_t mask;
  Slot* const slots;
  std::atomic<uint64_t> next_ticket{0};
  // Tickets below this one predate the last in-place reset: never collected.
  std::atomic<uint64_t> first_ticket{0};
};

std::atomic<bool> g_enabled{false};
std::atomic<RingBuf*> g_ring{nullptr};
std::atomic<int64_t> g_enable_time_ns{0};

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

void Trace::Enable(size_t capacity) {
  size_t cap = RoundUpPow2(capacity < 16 ? 16 : capacity);
  RingBuf* ring = g_ring.load(std::memory_order_acquire);
  if (ring != nullptr && ring->mask + 1 == cap) {
    // Same capacity: reset the ring in place by starting it at the next
    // ticket. Tickets keep counting, so a writer still finishing a record
    // from before the reset holds an older lap than any later writer of its
    // slot, and the claim in Record keeps the two apart.
    ring->first_ticket.store(ring->next_ticket.load(std::memory_order_acquire),
                             std::memory_order_release);
  } else {
    // New capacity: install a fresh ring. The previous ring is intentionally
    // leaked — lock-free writers and readers may still hold a pointer to it,
    // and trace re-enables are rare enough that reclaiming the few hundred KB
    // is not worth a reclamation protocol.
    g_ring.store(new RingBuf(cap), std::memory_order_release);
  }
  g_enable_time_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void Trace::Disable() { g_enabled.store(false, std::memory_order_release); }

bool Trace::IsEnabled() { return g_enabled.load(std::memory_order_acquire); }

int64_t Trace::EnableTimeNs() {
  return g_enable_time_ns.load(std::memory_order_relaxed);
}

void Trace::Record(TraceEvent event, uint64_t thread_id, uint64_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  RingBuf* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) {
    return;
  }
  uint64_t ticket = ring->next_ticket.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[ticket & ring->mask];
  // Lap number encodes stability: seq is 2*lap+1 while writing, 2*(lap+1)
  // after. Claim the slot from a complete record of an older lap. A slot
  // still being written (odd: a writer delayed since its ticket a lap ago) or
  // already at or past this lap belongs to another writer, and this record
  // is dropped, so no two writers ever fill one slot at once.
  uint64_t lap = ticket / (ring->mask + 1);
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 || seq > 2 * lap ||
      !slot.seq.compare_exchange_strong(seq, 2 * lap + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);  // seq=odd before data
  slot.time_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
  slot.thread_id.store(thread_id, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.event.store(static_cast<uint8_t>(event), std::memory_order_relaxed);
  slot.seq.store(2 * (lap + 1), std::memory_order_release);  // data before seq=even
}

size_t Trace::Collect(std::vector<TraceRecord>* out) {
  out->clear();
  RingBuf* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) {
    return 0;
  }
  uint64_t end = ring->next_ticket.load(std::memory_order_acquire);
  size_t capacity = ring->mask + 1;
  uint64_t begin = std::max(end > capacity ? end - capacity : 0,
                            ring->first_ticket.load(std::memory_order_acquire));
  for (uint64_t ticket = begin; ticket < end; ++ticket) {
    Slot& slot = ring->slots[ticket & ring->mask];
    uint64_t lap = ticket / capacity;
    uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != 2 * (lap + 1)) {
      continue;  // overwritten by a later lap, dropped, or still being written
    }
    TraceRecord copy;
    copy.time_ns = slot.time_ns.load(std::memory_order_relaxed);
    copy.thread_id = slot.thread_id.load(std::memory_order_relaxed);
    copy.arg = slot.arg.load(std::memory_order_relaxed);
    copy.event = static_cast<TraceEvent>(slot.event.load(std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_acquire);  // data before re-check
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
      continue;  // torn: a writer raced in while we copied
    }
    out->push_back(copy);
  }
  // Ticket order is not time order: a writer may be delayed between taking
  // its ticket and reading the clock.
  std::stable_sort(out->begin(), out->end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.time_ns < b.time_ns;
                   });
  return out->size();
}

std::string Trace::Format() {
  std::vector<TraceRecord> records;
  Collect(&records);
  int64_t base = EnableTimeNs();
  std::string out;
  char line[128];
  for (const TraceRecord& r : records) {
    snprintf(line, sizeof(line), "%12.3fus tid=%-6" PRIu64 " %-10s arg=%" PRIu64 "\n",
             static_cast<double>(r.time_ns - base) / 1e3, r.thread_id,
             TraceEventName(r.event), r.arg);
    out += line;
  }
  return out;
}

uint64_t Trace::RecordedCount() {
  RingBuf* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr) {
    return 0;
  }
  uint64_t first = ring->first_ticket.load(std::memory_order_acquire);
  return ring->next_ticket.load(std::memory_order_relaxed) - first;
}

namespace {

// --- Chrome trace_event export -----------------------------------------
//
// Layout: pid 1 holds one track per LWP ("what is this processor resource
// doing": which thread it runs, kernel waits); pid 2 holds one track per
// thread ("what is this thread waiting on": lock/cv waits, lifetime spans).

void AppendEvent(std::vector<std::string>* events, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendEvent(std::vector<std::string>* events, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  events->push_back(buf);
}

}  // namespace

std::string Trace::ExportChromeJson() {
  std::vector<TraceRecord> records;
  Collect(&records);

  int64_t base = EnableTimeNs();
  if (!records.empty() && records.front().time_ns < base) {
    base = records.front().time_ns;
  }
  auto us = [base](int64_t t) { return static_cast<double>(t - base) / 1e3; };

  std::vector<std::string> events;
  AppendEvent(&events,
              "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
              "\"args\":{\"name\":\"lwps\"}}");
  AppendEvent(&events,
              "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
              "\"args\":{\"name\":\"threads\"}}");

  std::set<uint64_t> lwp_tracks;
  // thread id -> {span start ts (us), lwp it runs on}; open while dispatched.
  struct RunSpan {
    double start_us;
    uint64_t lwp;
  };
  std::map<uint64_t, RunSpan> running;
  double last_ts = 0;

  auto close_span = [&](uint64_t tid, double ts, const char* reason) {
    auto it = running.find(tid);
    if (it == running.end()) {
      return;
    }
    double dur = ts - it->second.start_us;
    AppendEvent(&events,
                "{\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                ",\"name\":\"tid %" PRIu64
                "\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"end\":\"%s\"}}",
                it->second.lwp, tid, it->second.start_us, dur < 0 ? 0 : dur,
                reason);
    running.erase(it);
  };

  for (const TraceRecord& r : records) {
    double ts = us(r.time_ns);
    last_ts = ts;
    switch (r.event) {
      case TraceEvent::kDispatch:
        close_span(r.thread_id, ts, "redispatch");
        lwp_tracks.insert(r.arg);
        running[r.thread_id] = RunSpan{ts, r.arg};
        break;
      case TraceEvent::kYield:
      case TraceEvent::kPreempt:
      case TraceEvent::kBlock:
      case TraceEvent::kStop:
        close_span(r.thread_id, ts, TraceEventName(r.event));
        break;
      case TraceEvent::kExit:
        close_span(r.thread_id, ts, "EXIT");
        AppendEvent(&events,
                    "{\"ph\":\"e\",\"cat\":\"thread\",\"id\":%" PRIu64
                    ",\"pid\":2,\"tid\":%" PRIu64
                    ",\"name\":\"lifetime\",\"ts\":%.3f}",
                    r.thread_id, r.thread_id, ts);
        break;
      case TraceEvent::kCreate:
        AppendEvent(&events,
                    "{\"ph\":\"b\",\"cat\":\"thread\",\"id\":%" PRIu64
                    ",\"pid\":2,\"tid\":%" PRIu64
                    ",\"name\":\"lifetime\",\"ts\":%.3f,"
                    "\"args\":{\"creator\":%" PRIu64 "}}",
                    r.thread_id, r.thread_id, ts, r.arg);
        break;
      case TraceEvent::kMutexWait:
      case TraceEvent::kRwWait:
      case TraceEvent::kSemaWait:
      case TraceEvent::kCvWait: {
        // arg is the wait duration in ns; the record marks the wait's end.
        double dur = static_cast<double>(r.arg) / 1e3;
        AppendEvent(&events,
                    "{\"ph\":\"X\",\"pid\":2,\"tid\":%" PRIu64
                    ",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                    r.thread_id, TraceEventName(r.event), ts - dur, dur);
        break;
      }
      case TraceEvent::kKernelWait: {
        double dur = static_cast<double>(r.arg) / 1e3;
        lwp_tracks.insert(r.thread_id);
        AppendEvent(&events,
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                    ",\"name\":\"KERNEL_WAIT\",\"ts\":%.3f,\"dur\":%.3f}",
                    r.thread_id, ts - dur, dur);
        break;
      }
      case TraceEvent::kSigwaiting:
        AppendEvent(&events,
                    "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,"
                    "\"name\":\"SIGWAITING\",\"ts\":%.3f,"
                    "\"args\":{\"pool\":%" PRIu64 "}}",
                    ts, r.arg);
        break;
      case TraceEvent::kWake:
      case TraceEvent::kContinue:
      case TraceEvent::kSignal:
      case TraceEvent::kNetPark:
        AppendEvent(&events,
                    "{\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":%" PRIu64
                    ",\"name\":\"%s\",\"ts\":%.3f,\"args\":{\"arg\":%" PRIu64
                    "}}",
                    r.thread_id, TraceEventName(r.event), ts, r.arg);
        break;
      case TraceEvent::kNetWake: {
        // arg is the readiness wait in ns; render like the sync waits.
        double dur = static_cast<double>(r.arg) / 1e3;
        AppendEvent(&events,
                    "{\"ph\":\"X\",\"pid\":2,\"tid\":%" PRIu64
                    ",\"name\":\"NET_WAIT\",\"ts\":%.3f,\"dur\":%.3f}",
                    r.thread_id, ts - dur, dur);
        break;
      }
      case TraceEvent::kSteal:
        // subject = thief shard, arg = (count << 32) | victim shard.
        AppendEvent(&events,
                    "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,"
                    "\"name\":\"STEAL\",\"ts\":%.3f,"
                    "\"args\":{\"thief\":%" PRIu64 ",\"victim\":%" PRIu64
                    ",\"count\":%" PRIu64 "}}",
                    ts, r.thread_id, r.arg & 0xffffffffu, r.arg >> 32);
        break;
      case TraceEvent::kInject:
        // arg = (op bit << 32) | inject::Point.
        AppendEvent(&events,
                    "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,"
                    "\"name\":\"INJECT\",\"ts\":%.3f,"
                    "\"args\":{\"point\":\"%s\",\"op\":%" PRIu64 "}}",
                    ts,
                    inject::PointName(
                        static_cast<inject::Point>(r.arg & 0xff)),
                    r.arg >> 32);
        break;
      case TraceEvent::kLockdep:
        // arg = (report kind << 32) | (from class << 16) | to class.
        AppendEvent(&events,
                    "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,"
                    "\"name\":\"LOCKDEP\",\"ts\":%.3f,"
                    "\"args\":{\"kind\":%" PRIu64 ",\"thread\":%" PRIu64
                    ",\"from\":\"%s\",\"to\":\"%s\"}}",
                    ts, r.arg >> 32, r.thread_id,
                    lockdep::ClassName(
                        static_cast<uint32_t>((r.arg >> 16) & 0xffff)),
                    lockdep::ClassName(
                        static_cast<uint32_t>(r.arg & 0xffff)));
        break;
    }
  }

  // Threads still on an LWP when the ring was dumped: close them at the last
  // timestamp so the viewer doesn't drop the spans.
  while (!running.empty()) {
    close_span(running.begin()->first, last_ts, "trace-end");
  }

  for (uint64_t lwp : lwp_tracks) {
    AppendEvent(&events,
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"LWP %" PRIu64 "\"}}",
                lwp, lwp);
  }

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    out += events[i];
    if (i + 1 < events.size()) {
      out += ',';
    }
    out += '\n';
  }
  out += "]}\n";
  return out;
}

const char* TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kDispatch:
      return "DISPATCH";
    case TraceEvent::kYield:
      return "YIELD";
    case TraceEvent::kPreempt:
      return "PREEMPT";
    case TraceEvent::kBlock:
      return "BLOCK";
    case TraceEvent::kWake:
      return "WAKE";
    case TraceEvent::kStop:
      return "STOP";
    case TraceEvent::kContinue:
      return "CONTINUE";
    case TraceEvent::kCreate:
      return "CREATE";
    case TraceEvent::kExit:
      return "EXIT";
    case TraceEvent::kSignal:
      return "SIGNAL";
    case TraceEvent::kSigwaiting:
      return "SIGWAITING";
    case TraceEvent::kMutexWait:
      return "MUTEX_WAIT";
    case TraceEvent::kRwWait:
      return "RW_WAIT";
    case TraceEvent::kSemaWait:
      return "SEMA_WAIT";
    case TraceEvent::kCvWait:
      return "CV_WAIT";
    case TraceEvent::kKernelWait:
      return "KERNEL_WAIT";
    case TraceEvent::kNetPark:
      return "NET_PARK";
    case TraceEvent::kNetWake:
      return "NET_WAKE";
    case TraceEvent::kSteal:
      return "STEAL";
    case TraceEvent::kInject:
      return "INJECT";
    case TraceEvent::kLockdep:
      return "LOCKDEP";
  }
  return "?";
}

}  // namespace sunmt
