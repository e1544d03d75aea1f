// Checks the benchmark's own arithmetic: nearest-rank percentiles, span self
// time, window filtering and the object catalogue. Exits 0 when every check
// holds; smoke_test.py runs it before the workloads.

#include <cstdio>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "selftest: FAILED: %s\n", what);
    g_failures++;
  }
}

void TestNearestRank() {
  std::vector<int64_t> v;
  Expect(NearestRank(v, 0.5) == 0, "empty sample reads 0");
  for (int64_t i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  Expect(NearestRank(v, 0.50) == 50, "p50 of 1..100 is 50");
  Expect(NearestRank(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(v, 1.00) == 100, "p100 is the maximum");
  Expect(NearestRank(v, 0.0) == 1, "p0 is the minimum");
  std::vector<int64_t> odd = {10, 20, 30};
  Expect(NearestRank(odd, 0.50) == 20, "p50 of 3 samples is the middle one");
  Expect(NearestRank(odd, 0.99) == 30, "p99 of 3 samples is the last one");
  std::vector<int64_t> one = {7};
  Expect(NearestRank(one, 0.99) == 7, "a single sample is every percentile");
}

void TestSelfTimes() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50) = 40;
  // grandchild [12,18) lies under the first child only.
  std::vector<Span> spans = {
      {0, 100, 1, -1, 0, "root"},
      {10, 30, 1, 0, 0, "a"},
      {20, 50, 1, 0, 0, "b"},
      {12, 18, 1, 1, 0, "a1"},
      {90, 130, 1, 0, 0, "tail"},  // runs past its parent: clipped to [90,100)
  };
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time subtracts the union of children");
  Expect(self[1] == 20 - 6, "child self time subtracts its own child");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 6, "grandchild self time is its duration");
  Expect(self[4] == 40, "an overrunning leaf keeps its whole duration");

  std::vector<Span> unfilled = {{0, 10, 1, -1, 0, "root"}, {}};
  Expect(SelfTimes(unfilled)[0] == 10, "a reserved, unfilled slot is no child");
}

void TestDurations() {
  std::vector<Span> spans = {
      {0, 5, 1, -1, 0, "x"},    // starts before the window
      {10, 14, 2, -1, 0, "x"},  // inside
      {12, 20, 3, -1, 0, "y"},  // other name
      {15, 18, 4, -1, 0, "x"},  // inside
      {18, 31, 5, -1, 0, "x"},  // ends after the window
  };
  std::vector<int64_t> d = Durations(spans, "x", 10, 30);
  Expect(d.size() == 2 && d[0] == 3 && d[1] == 4,
         "window keeps spans wholly inside it, sorted");
}

void TestSpanLog() {
  SpanLog log(2);
  int32_t root = log.Reserve();
  Expect(log.Add({1, 2, 9, root, 0, "child"}) == 1, "second slot");
  Expect(log.Add({1, 2, 9, root, 0, "lost"}) == -1, "full log refuses");
  log.Set(root, {0, 3, 9, -1, 0, "root"});
  std::vector<Span> got = log.Take();
  Expect(got.size() == 2 && log.dropped() == 1, "one span dropped");
  Expect(got[0].name != nullptr && got[0].end_ns == 3, "reserved slot filled");
}

void TestCatalogue() {
  BodyRing ring;
  bool sizes_ok = true;
  for (uint32_t n = 0; n < kChurnObjects; ++n) {
    size_t s = ring.Body(n).size();
    size_t max = n < kHotObjects ? 4096 : 8192;
    sizes_ok &= s >= kMinBody && s <= max;
  }
  Expect(sizes_ok, "object sizes stay within 256 B..4 KiB (hot) / 8 KiB");
  BodyRing again;
  Expect(ring.Body(123) == again.Body(123), "bodies depend only on n");
  Expect(ring.Body(1) != ring.Body(2), "distinct objects differ");
  uint32_t n = 0;
  Expect(ParseObjectPath("/obj/16383", &n) && n == 16383, "parses the last object");
  Expect(!ParseObjectPath("/obj/16384", &n), "rejects out-of-range objects");
  Expect(!ParseObjectPath("/obj/", &n), "rejects an empty number");
  Expect(!ParseObjectPath("/obj/1x", &n), "rejects trailing junk");
  Expect(!ParseObjectPath("/other/1", &n), "rejects other paths");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestSelfTimes();
  perfbench::TestDurations();
  perfbench::TestSpanLog();
  perfbench::TestCatalogue();
  if (perfbench::g_failures == 0) {
    printf("selftest: all checks passed\n");
  }
  return perfbench::g_failures == 0 ? 0 : 1;
}
