// Object-cache suite: the reusable per-LWP magazine cache extracted from the
// stack cache (src/util/object_cache.h). Exercises the magazine/depot protocol
// on a purpose-built small cache (so every tier boundary is reachable in a few
// operations), the CachedAlloc new/delete adapter, the fork1() child repair,
// an inject sweep over the timed-wait arming paths, and the zero-alloc
// steady-state assertion the CI lane runs: once warm, sema/cv/net deadline
// waits and HTTP connection handling must not fall back to the heap.
//
// Runs with a 4-LWP pool (like lifecycle_cache_test) so entries really land in
// several per-LWP magazines and Drain/Snapshot have cross-thread work to do.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/server.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/ipc/fork1.h"
#include "src/net/net.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/object_cache.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::RunSweep;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

constexpr int64_t kUs = 1000;
constexpr int64_t kMs = 1000 * kUs;

constexpr uint32_t kSchedOps =
    inject::kOpYield | inject::kOpDelay | inject::kOpSteal;

// ---- A purpose-built tiny cache ----------------------------------------------
// Capacities small enough that a handful of operations crosses every tier
// boundary: 4-slot magazines, 8-slot depot, batches of 2.

std::atomic<uint64_t> g_test_evictions{0};

struct TestTraits {
  static constexpr const char* kName = "test.value";
  static constexpr size_t kMagazineCapacity = 4;
  static constexpr size_t kDepotCapacity = 8;
  static constexpr size_t kRefillBatch = 2;
  static void Evict(uint64_t&) { g_test_evictions.fetch_add(1); }
};
using TestCache = ObjectCache<uint64_t, TestTraits>;

// Exact counter accounting on the calling thread's magazine: a cold Acquire
// is a counted miss (per cache and in the process fallback counter); six
// releases overflow the 4-slot magazine exactly once (one batch flush of 2);
// re-acquiring them is six hits with exactly one depot refill and no new
// allocation; and every released value comes back exactly once.
TEST(ObjectCache, RefillFlushInvariants) {
  TestCache::Drain();
  ASSERT_EQ(TestCache::CachedCount(), 0u);
  ObjectCacheStats base = TestCache::Snapshot();
  uint64_t fallback_base = ObjectCacheFallbackAllocs();

  uint64_t v = 0;
  EXPECT_FALSE(TestCache::Acquire(&v));  // cold: caller must allocate
  ObjectCacheStats after_miss = TestCache::Snapshot();
  EXPECT_EQ(after_miss.misses - base.misses, 1u);
  EXPECT_EQ(after_miss.hits, base.hits);
  EXPECT_GE(ObjectCacheFallbackAllocs() - fallback_base, 1u);

  for (uint64_t i = 1; i <= 6; ++i) {
    TestCache::Release(i);
  }
  EXPECT_EQ(TestCache::CachedCount(), 6u);
  ObjectCacheStats after_release = TestCache::Snapshot();
  EXPECT_EQ(after_release.flushes - base.flushes, 1u);
  EXPECT_EQ(after_release.depot_depth, TestCache::kRefillBatch);
  EXPECT_EQ(after_release.depot_depth + after_release.magazine_depth, 6u);

  uint64_t sum = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(TestCache::Acquire(&v));
    sum += v;
  }
  EXPECT_EQ(sum, 21u);  // {1..6}, each exactly once
  ObjectCacheStats after_reacquire = TestCache::Snapshot();
  EXPECT_EQ(after_reacquire.hits - base.hits, 6u);
  EXPECT_EQ(after_reacquire.refills - base.refills, 1u);
  EXPECT_EQ(after_reacquire.misses, after_miss.misses) << "reuse allocated";
  EXPECT_EQ(TestCache::CachedCount(), 0u);
}

// When magazine and depot are both full, the overflow batch is disposed
// through Traits::Evict — never leaked, never dropped on the floor. Thirteen
// single-threaded releases into a 4+8 cache evict exactly 2; draining evicts
// the remaining 11, so every release is accounted for.
TEST(ObjectCache, EvictsWhenBothTiersFull) {
  TestCache::Drain();
  ASSERT_EQ(TestCache::CachedCount(), 0u);
  ObjectCacheStats base = TestCache::Snapshot();
  uint64_t evict_base = g_test_evictions.load();

  for (uint64_t i = 1; i <= 13; ++i) {
    TestCache::Release(i);
  }
  ObjectCacheStats full = TestCache::Snapshot();
  EXPECT_EQ(full.evictions - base.evictions, 2u);
  EXPECT_EQ(g_test_evictions.load() - evict_base, 2u);
  EXPECT_EQ(full.depot_depth, TestCache::kDepotCapacity);
  EXPECT_EQ(TestCache::CachedCount(), 11u);

  TestCache::Drain();
  EXPECT_EQ(TestCache::CachedCount(), 0u);
  EXPECT_EQ(g_test_evictions.load() - evict_base, 13u);  // all 13 disposed
}

// Drain() must reach entries parked in OTHER kernel threads' magazines: park
// values from unbound threads (they release on whichever pool LWP runs them),
// then Drain from the main thread and expect a completely empty cache.
TEST(ObjectCache, DrainReachesPerLwpMagazines) {
  TestCache::Drain();
  ASSERT_EQ(TestCache::CachedCount(), 0u);
  uint64_t evict_base = g_test_evictions.load();

  // 10 values: even if one LWP runs every release, 4 magazine + 6 depot slots
  // absorb them without evictions, so the count below is exact.
  constexpr uint64_t kValues = 10;
  for (uint64_t i = 0; i < kValues; ++i) {
    EXPECT_TRUE(Join(Spawn([i] { TestCache::Release(1000 + i); })));
  }
  EXPECT_EQ(TestCache::CachedCount(), kValues);
  EXPECT_GT(TestCache::Snapshot().magazine_count, 0u);

  TestCache::Drain();
  EXPECT_EQ(TestCache::CachedCount(), 0u);
  EXPECT_EQ(g_test_evictions.load() - evict_base, kValues);
  ObjectCacheStats drained = TestCache::Snapshot();
  EXPECT_EQ(drained.depot_depth, 0u);
  EXPECT_EQ(drained.magazine_depth, 0u);
}

// ---- CachedAlloc: the new/delete adapter -------------------------------------

std::atomic<int> g_obj_ctors{0};
std::atomic<int> g_obj_dtors{0};

struct TestObj {
  uint64_t payload[4] = {};
  TestObj() { g_obj_ctors.fetch_add(1); }
  ~TestObj() { g_obj_dtors.fetch_add(1); }
};
struct TestObjTag {
  static constexpr const char* kName = "test.obj";
};
using ObjAlloc = CachedAlloc<TestObj, TestObjTag>;

// The adapter recycles the *allocation* but runs the constructor/destructor on
// every New/Delete; after the first (minting) miss, a single-threaded
// new/delete loop is pure cache hits reusing the same block.
TEST(ObjectCache, CachedAllocRecyclesBlocksAndRunsLifecycles) {
  int ctor_base = g_obj_ctors.load();
  int dtor_base = g_obj_dtors.load();
  ObjectCacheStats base = ObjAlloc::Cache::Snapshot();

  TestObj* first = ObjAlloc::New();
  ObjAlloc::Delete(first);
  // Single-threaded and LIFO: the very next New must reuse the same block.
  TestObj* again = ObjAlloc::New();
  EXPECT_EQ(again, first);
  ObjAlloc::Delete(again);

  for (int i = 0; i < 50; ++i) {
    TestObj* p = ObjAlloc::New();
    ObjAlloc::Delete(p);
  }
  EXPECT_EQ(g_obj_ctors.load() - ctor_base, 52);
  EXPECT_EQ(g_obj_dtors.load() - dtor_base, 52);
  ObjectCacheStats steady = ObjAlloc::Cache::Snapshot();
  // At most the initial cold miss allocated; everything after recycled.
  EXPECT_LE(steady.misses - base.misses, 1u);
  EXPECT_GE(steady.hits - base.hits, 51u);
}

// ---- Introspection -----------------------------------------------------------

// With stats on, the process report appends FormatStats()'s histograms, and
// each cache's counters still print once, on its OBJCACHE line.
TEST(ObjectCache, SurfacedInProcessStateAndStats) {
  uint64_t v;
  (void)TestCache::Acquire(&v);  // ensure this cache is registered
  bool stats_were_on = Stats::Enabled();
  Stats::Enable();
  std::string state = FormatProcessState();
  if (!stats_were_on) {
    Stats::Disable();
  }
  EXPECT_NE(state.find("OBJCACHE caches="), std::string::npos);
  EXPECT_NE(state.find("fallback_allocs="), std::string::npos);
  EXPECT_NE(state.find("STATS"), std::string::npos);
  size_t at = state.find("test.value");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(state.find("test.value", at + 1), std::string::npos) << state;
  EXPECT_EQ(FormatStats().find("test.value"), std::string::npos);
}

// ---- fork1() repair ----------------------------------------------------------

// fork1() child: every registered cache must come up empty (parent-cached
// values are abandoned, never double-disposed), the full protocol must work on
// the rebuilt depot/registry, and the parent's caches are untouched. Exit
// codes name the failing step.
TEST(ObjectCache, ResetAfterForkInChild) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "TSan cannot start threads after a multi-threaded fork";
#endif
  TestCache::Drain();
  for (uint64_t i = 1; i <= 3; ++i) {
    TestCache::Release(i);
  }
  ASSERT_EQ(TestCache::CachedCount(), 3u);

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (TestCache::CachedCount() != 0) {
      _exit(12);  // parent values leaked into the child's cache
    }
    // The repaired cache must run the whole protocol from scratch.
    TestCache::Release(7);
    uint64_t v = 0;
    if (!TestCache::Acquire(&v) || v != 7) {
      _exit(13);
    }
    // The CachedAlloc adapter and a timed wait must also work post-fork.
    TestObj* p = ObjAlloc::New();
    if (p == nullptr) {
      _exit(14);
    }
    ObjAlloc::Delete(p);
    sema_t s;
    sema_init(&s, 0, 0, nullptr);
    if (sema_p_timed(&s, 200 * kUs) != 0) {
      _exit(15);  // timed wait must time out, not hang
    }
    TestCache::Drain();
    if (TestCache::CachedCount() != 0) {
      _exit(16);
    }
    _exit(0);
  }
  EXPECT_EQ(WaitForChild(pid), 0);
  // The parent's cache is untouched by the child's reset.
  EXPECT_EQ(TestCache::CachedCount(), 3u);
  TestCache::Drain();
}

// ---- Inject sweep over the timed-wait arming paths ---------------------------

// Churn expiring AND signaled sema/cv timed waits from several threads under
// the seed sweep, alongside the thread-stack cache their posters go through:
// the fire/cancel ack protocol, which lets the timeout context live on the
// waiter's stack, and the cache hand-offs must hold up under forced yields,
// delays, and steals.
TEST(ObjectCache, InjectSweepTimedWaitChurn) {
  RunSweep("objcache", "timedwait-churn", 0.15, kSchedOps, [](SplitMix64& rng) {
    constexpr int kWorkers = 3;
    std::atomic<int> violations{0};
    std::vector<thread_id_t> workers;
    for (int w = 0; w < kWorkers; ++w) {
      const uint64_t worker_seed = rng.Next();
      workers.push_back(Spawn([worker_seed, &violations] {
        SplitMix64 wrng(worker_seed);
        for (int i = 0; i < 6; ++i) {
          // Expiring semaphore wait: nobody posts, must time out.
          sema_t s;
          sema_init(&s, 0, 0, nullptr);
          if (sema_p_timed(&s, static_cast<int64_t>(
                                   50 + wrng.NextBounded(200)) * kUs) != 0) {
            violations.fetch_add(1);
          }
          // Satisfied semaphore wait: a racing poster, generous deadline.
          sema_t posted;
          sema_init(&posted, 0, 0, nullptr);
          thread_id_t poster = Spawn([&posted] { sema_v(&posted); });
          if (sema_p_timed(&posted, 500 * kMs) != 1) {
            violations.fetch_add(1);
          }
          if (!Join(poster)) {
            violations.fetch_add(1);
          }
          // Expiring condvar wait: nobody signals.
          mutex_t m;
          condvar_t cv;
          mutex_init(&m, 0, nullptr);
          cv_init(&cv, 0, nullptr);
          mutex_enter(&m);
          if (cv_timedwait(&cv, &m, static_cast<int64_t>(
                                        50 + wrng.NextBounded(200)) * kUs) !=
              ETIME) {
            violations.fetch_add(1);
          }
          mutex_exit(&m);
        }
      }));
    }
    for (thread_id_t id : workers) {
      EXPECT_TRUE(Join(id));
    }
    EXPECT_EQ(violations.load(), 0);
  });
}

// ---- The zero-alloc assertion ------------------------------------------------

// One round of the hot-path churn the caches exist for: expiring and satisfied
// sema waits, expiring cv waits, expiring net deadline reads, and short-lived
// HTTP connections each carrying one request.
void ChurnHotPaths(int iterations, int net_fd, const HttpServer& server) {
  uint16_t http_port = server.port();
  for (int i = 0; i < iterations; ++i) {
    sema_t s;
    sema_init(&s, 0, 0, nullptr);
    (void)sema_p_timed(&s, 50 * kUs);  // expires: the fire dequeues it
    sema_t posted;
    sema_init(&posted, 0, 0, nullptr);
    thread_id_t poster = Spawn([&posted] { sema_v(&posted); });
    (void)sema_p_timed(&posted, 500 * kMs);  // satisfied: the timer is cancelled
    Join(poster);
    mutex_t m;
    condvar_t cv;
    mutex_init(&m, 0, nullptr);
    cv_init(&cv, 0, nullptr);
    mutex_enter(&m);
    (void)cv_timedwait(&cv, &m, 50 * kUs);
    mutex_exit(&m);
    char byte;
    (void)net_read_deadline(net_fd, &byte, 1, 50 * kUs);  // nothing to read
  }
  // Connection churn: each accept allocates a ConnArg and a handler-thread
  // stack; both must come from warm caches.
  for (int i = 0; i < iterations / 4 + 1; ++i) {
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(http_port);
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(net_register(fd), 0);
    ASSERT_EQ(net_connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)), 0);
    const char req[] = "GET /z HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    size_t off = 0;
    while (off < sizeof(req) - 1) {
      ssize_t n = net_write(fd, req + off, sizeof(req) - 1 - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    char buf[512];
    ssize_t n;
    while ((n = net_read(fd, buf, sizeof(buf))) > 0) {
    }
    net_unregister(fd);
    close(fd);
  }
  // The client seeing EOF does not mean the handler thread is gone: it still
  // has to exit and hand its ConnArg + stack back to the caches. ConnMain
  // frees the ConnArg before serving and decrements active_conns_ last, so
  // a drained connection count means every ConnArg is back in its cache —
  // wait for that instead of a fixed beat, which TSan + injected delays can
  // outlast (a lagging release turns into a phantom miss every round).
  int64_t settle_deadline = MonotonicNowNs() + 5'000 * kMs;
  while (server.active_connections() > 0 &&
         MonotonicNowNs() < settle_deadline) {
    thread_yield();
    usleep(1000);
  }
}

// The CI lane's zero-alloc assertion: after warm-up, steady-state timed-wait
// and HTTP churn must not fall back to the heap — the process-wide fallback
// counter (bumped on every cache miss) must not move across a full churn
// round. Warm-up mints blocks until circulation covers the cross-LWP
// alloc-here-free-there flow; a couple of rounds are allowed to converge (the
// steady *state* is what is asserted, not the first pass), but convergence
// itself is mandatory.
TEST(ObjectCache, ZeroAllocSteadyStateChurn) {
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  ASSERT_EQ(net_register(sp[0]), 0);

  HttpServerConfig config;
  config.handler = [](const HttpMessage&, HttpExchange* ex) {
    ex->Respond(200, "text/plain", "ok");
  };
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);

  ChurnHotPaths(32, sp[0], server);  // warm every cache

  bool converged = false;
  // Enough rounds for cross-LWP pooling to drain: when the acceptor LWP
  // allocates and the handler LWPs free, freed blocks pool in the handlers'
  // magazines (no depot flush until one holds kMagazineCapacity), so early
  // rounds can each mint one block while the pipeline fills. Every miss grows
  // the population, so convergence is monotone — it just needs more than the
  // two or three rounds a worst-case thread placement leaves short.
  for (int round = 0; round < 8 && !converged; ++round) {
    ObjectCacheStats before_caches[32];
    size_t before_n = ObjectCacheSnapshotAll(before_caches, 32);
    uint64_t before = ObjectCacheFallbackAllocs();
    ChurnHotPaths(16, sp[0], server);
    if (::testing::Test::HasFailure()) {
      break;  // churn itself failed; the counter check would be noise
    }
    uint64_t after = ObjectCacheFallbackAllocs();
    converged = after == before;
    if (!converged) {
      fprintf(stderr,
              "[objcache] round %d minted %llu fallback allocs, re-warming\n",
              round, static_cast<unsigned long long>(after - before));
      // Name the cache(s) that missed, so a regression in one consumer does
      // not send the next reader bisecting every hot path.
      ObjectCacheStats after_caches[32];
      size_t after_n = ObjectCacheSnapshotAll(after_caches, 32);
      for (size_t i = 0; i < after_n; ++i) {
        for (size_t j = 0; j < before_n; ++j) {
          if (strcmp(after_caches[i].name, before_caches[j].name) != 0) {
            continue;
          }
          if (after_caches[i].misses != before_caches[j].misses) {
            fprintf(stderr, "[objcache]   %s: +%llu misses\n",
                    after_caches[i].name,
                    static_cast<unsigned long long>(after_caches[i].misses -
                                                    before_caches[j].misses));
          }
        }
      }
    }
  }
  EXPECT_TRUE(converged)
      << "steady-state churn kept allocating; caches never warmed";
  // Timed sema, condvar and net waits keep their timeout context on the
  // waiter's stack: the churn above created no cache for it.
  ObjectCacheStats caches[32];
  size_t n = ObjectCacheSnapshotAll(caches, 32);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(strstr(caches[i].name, "timeout_ctx"), nullptr) << caches[i].name;
  }

  server.Stop();
  net_unregister(sp[0]);
  close(sp[0]);
  close(sp[1]);
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  // Several pool LWPs: per-LWP magazines (and cross-LWP block migration in the
  // zero-alloc churn) are the point.
  config.initial_pool_lwps = 4;
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
