// Shared helpers for the benchmarks: the paper-table formatter (fig5/fig6)
// with its `ratio` column ("the ratio of the time in that row to the time in
// the previous row"), and the machine-readable BENCH_<name>.json line every
// benchmark emits so CI can track the perf trajectory across PRs.

#ifndef SUNMT_BENCH_BENCH_UTIL_H_
#define SUNMT_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

namespace sunmt_bench {

struct Row {
  std::string label;
  double time_us;
  double paper_us;  // the 25MHz SPARCstation 1+ number, for reference
};

inline void PrintPaperTable(const char* title, const std::vector<Row>& rows) {
  printf("\n%s\n", title);
  printf("  %-28s %12s %8s   %14s %8s\n", "", "Time (usec)", "ratio", "paper (usec)",
         "ratio");
  for (size_t i = 0; i < rows.size(); ++i) {
    char ratio[32] = "";
    char paper_ratio[32] = "";
    if (i > 0 && rows[i - 1].time_us > 0) {
      snprintf(ratio, sizeof(ratio), "%.2f", rows[i].time_us / rows[i - 1].time_us);
    }
    if (i > 0 && rows[i - 1].paper_us > 0) {
      snprintf(paper_ratio, sizeof(paper_ratio), "%.2f",
               rows[i].paper_us / rows[i - 1].paper_us);
    }
    printf("  %-28s %12.2f %8s   %14.0f %8s\n", rows[i].label.c_str(), rows[i].time_us,
           ratio, rows[i].paper_us, paper_ratio);
  }
}

// ---- Machine-readable result lines -----------------------------------------
//
// Every benchmark binary ends by printing exactly one line of the form
//   BENCH_<name>.json {"bench":"<name>","metrics":{"<metric>":<value>,...}}
// greppable by ^BENCH_ and parseable as JSON after the first space.

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& metric, double value) {
    metrics_.emplace_back(metric, value);
  }

  void Emit() const {
    // The leading newline keeps "^BENCH_" greppable even when a colorized
    // reporter left an ANSI reset sequence dangling on the current line.
    printf("\nBENCH_%s.json {\"bench\":\"%s\",\"metrics\":{", name_.c_str(),
           JsonEscape(name_).c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      printf("%s\"%s\":%.6g", i == 0 ? "" : ",",
             JsonEscape(metrics_[i].first).c_str(), metrics_[i].second);
    }
    printf("}}\n");
    fflush(stdout);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline double TimeUnitToNs(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond:
      return 1.0;
    case benchmark::kMicrosecond:
      return 1e3;
    case benchmark::kMillisecond:
      return 1e6;
    case benchmark::kSecond:
      return 1e9;
  }
  return 1.0;
}

// Console output as usual, plus one BENCH_<name>.json line at shutdown with
// each benchmark's real time normalized to nanoseconds.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLineReporter(std::string name) : json_(std::move(name)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      json_.Add(run.benchmark_name() + "_real_ns",
                run.GetAdjustedRealTime() * TimeUnitToNs(run.time_unit));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    json_.Emit();
  }

 private:
  BenchJson json_;
};

inline int RunBenchmarksWithJson(const char* name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  JsonLineReporter reporter{name};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

// Drop-in replacement for BENCHMARK_MAIN() that also emits the JSON line.
#define SUNMT_BENCH_JSON_MAIN(name)                              \
  int main(int argc, char** argv) {                              \
    return ::sunmt_bench::RunBenchmarksWithJson(name, argc, argv); \
  }

}  // namespace sunmt_bench

#endif  // SUNMT_BENCH_BENCH_UTIL_H_
