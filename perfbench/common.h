// Pieces shared by the program under test (program.cc), the HTTP load
// generator (loadgen.cc) and the arithmetic self-test (selftest.cc).
//
// Nothing here depends on sunmt: the load generator must stay a plain POSIX
// client so none of its cost can land on the library being measured.

#ifndef SUNMT_PERFBENCH_COMMON_H_
#define SUNMT_PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// SplitMix64 finaliser: the one mixing function behind every seeded choice.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix64(state_);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

// ---- The HTTP object catalogue ---------------------------------------------
//
// GET /obj/<n> returns a body whose size and bytes depend only on n. Objects
// below kHotObjects are 256 B..4 KiB (the http_keepalive working set, which
// fits the server's 1 MiB cache many times over); the rest are 256 B..8 KiB
// (http_churn draws from all kChurnObjects, ~64 MiB against the same cache).

inline constexpr uint32_t kHotObjects = 64;
inline constexpr uint32_t kChurnObjects = 16384;
inline constexpr size_t kMinBody = 256;

inline size_t ObjectSize(uint32_t n) {
  size_t max = n < kHotObjects ? 4096 : 8192;
  return kMinBody + Mix64(n) % (max - kMinBody + 1);
}

// Bodies are windows into one fixed ring of printable bytes, so the server
// serves them without formatting and the client checks them with memcmp.
class BodyRing {
 public:
  static constexpr size_t kOffsets = 64 * 1024;

  BodyRing() : ring_(kOffsets + 8192, '\0') {
    for (size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = static_cast<char>('!' + Mix64(i ^ 0x62656e6368ull) % 94);
    }
  }

  std::string_view Body(uint32_t n) const {
    size_t offset = Mix64(n ^ 0x6f626a656374ull) % kOffsets;
    return std::string_view(ring_.data() + offset, ObjectSize(n));
  }

 private:
  std::string ring_;
};

// Parses "/obj/<n>" with n < kChurnObjects; false for anything else.
inline bool ParseObjectPath(std::string_view target, uint32_t* n) {
  constexpr std::string_view kPrefix = "/obj/";
  if (target.substr(0, kPrefix.size()) != kPrefix ||
      target.size() == kPrefix.size() || target.size() > kPrefix.size() + 5) {
    return false;
  }
  uint32_t v = 0;
  for (char c : target.substr(kPrefix.size())) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  if (v >= kChurnObjects) {
    return false;
  }
  *n = v;
  return true;
}

// ---- Percentiles -----------------------------------------------------------

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q of the samples at or below it. 0 for an empty sample.
inline int64_t NearestRank(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Writes raw int64 samples in host byte order; run.py pools the files of all
// launches of a run before taking percentiles.
inline bool WriteSamples(const char* path, const std::vector<int64_t>& v) {
  FILE* f = fopen(path, "wb");
  if (f == nullptr) {
    return false;
  }
  size_t n = fwrite(v.data(), sizeof(int64_t), v.size(), f);
  return fclose(f) == 0 && n == v.size();
}

// ---- Spans -------------------------------------------------------------------
//
// Each span has a name, start, end and the index of the span that caused it
// (-1 for a root). `id` is shared by every span of one request or job, in
// both processes (the client sends it as X-Bench-Id). `lane` is the track a
// span is drawn on: spans of one lane never overlap unless nested.

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  int32_t parent = -1;
  uint32_t lane = 0;
  const char* name = nullptr;  // nullptr: slot reserved but never filled
};

// Fixed-capacity, lock-free span log kept in memory until the run ends. Slots
// are reserved with one atomic increment, so spans may be added from many
// threads; a full log drops (and counts) further spans.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity), spans_(capacity) {}

  // Reserves a slot for a span whose children are recorded before it ends.
  // Returns -1 when the log is full.
  int32_t Reserve() {
    size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    return slot < capacity_ ? static_cast<int32_t>(slot) : -1;
  }
  void Set(int32_t slot, const Span& span) {
    if (slot >= 0) {
      spans_[static_cast<size_t>(slot)] = span;
    }
  }
  int32_t Add(const Span& span) {
    int32_t slot = Reserve();
    Set(slot, span);
    return slot;
  }

  // Moves the recorded spans out. Call once, after every writer has finished.
  std::vector<Span> Take() {
    spans_.resize(std::min(next_.load(std::memory_order_relaxed), capacity_));
    return std::move(spans_);
  }
  uint64_t dropped() const {
    size_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? n - capacity_ : 0;
  }

 private:
  const size_t capacity_;
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
};

// Self time of every span: its duration minus the part of its interval that
// its children's spans cover (overlapping children are counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children grouped by parent in one flat array (a counting sort): after
  // the fill, span p's children are children[first[p] .. first[p + 1]).
  // Roots and unfilled slots go to the extra bucket n.
  const size_t n = spans.size();
  auto parent_of = [&](size_t i) -> size_t {
    int32_t p = spans[i].parent;
    return spans[i].name != nullptr && p >= 0 && static_cast<size_t>(p) < n
               ? static_cast<size_t>(p)
               : n;
  };
  std::vector<size_t> first(n + 3, 0);
  for (size_t i = 0; i < n; ++i) {
    first[parent_of(i) + 2]++;
  }
  for (size_t p = 2; p < first.size(); ++p) {
    first[p] += first[p - 1];
  }
  std::vector<size_t> children(n);
  for (size_t i = 0; i < n; ++i) {
    children[first[parent_of(i) + 1]++] = i;
  }
  std::vector<int64_t> self(n, 0);
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (size_t k = first[i]; k < first[i + 1]; ++k) {
      const Span& c = spans[children[k]];
      int64_t lo = std::max(s.start_ns, c.start_ns);
      int64_t hi = std::min(s.end_ns, c.end_ns);
      if (hi > lo) {
        cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

// Ascending durations (ns) of the spans called `name` that lie inside
// [begin_ns, end_ns).
inline std::vector<int64_t> Durations(const std::vector<Span>& spans,
                                      const char* name, int64_t begin_ns,
                                      int64_t end_ns) {
  std::vector<int64_t> out;
  for (const Span& s : spans) {
    if (s.name != nullptr && std::strcmp(s.name, name) == 0 &&
        s.start_ns >= begin_ns && s.end_ns <= end_ns) {
      out.push_back(s.end_ns - s.start_ns);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Per span name: count, p50/p99 duration and p50/p99 self time, in µs. The
// traced run prints this to show which layer a request's time sits in.
inline void PrintSelfTimeTable(FILE* out, const char* process,
                               const std::vector<Span>& spans,
                               const std::vector<int64_t>& self) {
  std::vector<const char*> names;
  for (const Span& s : spans) {
    if (s.name != nullptr &&
        std::none_of(names.begin(), names.end(), [&](const char* n) {
          return std::strcmp(n, s.name) == 0;
        })) {
      names.push_back(s.name);
    }
  }
  fprintf(out, "%s spans (us): %-16s %9s %9s %9s %9s %9s\n", process, "name",
          "count", "p50", "p99", "self_p50", "self_p99");
  for (const char* name : names) {
    std::vector<int64_t> dur;
    std::vector<int64_t> own;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != nullptr && std::strcmp(spans[i].name, name) == 0) {
        dur.push_back(spans[i].end_ns - spans[i].start_ns);
        own.push_back(self[i]);
      }
    }
    std::sort(dur.begin(), dur.end());
    std::sort(own.begin(), own.end());
    fprintf(out, "%s spans (us): %-16s %9zu %9.2f %9.2f %9.2f %9.2f\n",
            process, name, dur.size(), NearestRank(dur, 0.50) / 1e3,
            NearestRank(dur, 0.99) / 1e3, NearestRank(own, 0.50) / 1e3,
            NearestRank(own, 0.99) / 1e3);
  }
}

// Writes at most `limit` spans as Chrome trace_event JSON ("X" events, µs),
// the format Trace::ExportChromeJson() uses, so Perfetto shows both side by
// side. Returns false if the file cannot be written.
inline bool WriteChromeTrace(const char* path, const char* process, int pid,
                             const std::vector<Span>& spans,
                             const std::vector<int64_t>& self, size_t limit) {
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  fprintf(f,
          "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
          "\"pid\":%d,\"args\":{\"name\":\"%s\"}}",
          pid, process);
  size_t n = std::min(limit, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.name == nullptr) {
      continue;
    }
    fprintf(f,
            ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"self_us\":%.3f}}",
            s.name, pid, s.lane, s.start_ns / 1e3,
            (s.end_ns - s.start_ns) / 1e3,
            static_cast<unsigned long long>(s.id), self[i] / 1e3);
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

}  // namespace perfbench

#endif  // SUNMT_PERFBENCH_COMMON_H_
