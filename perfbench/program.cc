// The program under measurement for the repository benchmark (run.py).
//
// It runs the shipped configuration of sunmt — RuntimeConfig defaults (one
// pool LWP per online CPU), whatever net engine is the default — on one of
// three workloads:
//
//   http_keepalive, http_churn: an HttpServer with the epoll poller started,
//     a 16-shard 1 MiB HttpCache, a blocking HttpAccessLog to /dev/null and a
//     handler serving GET /obj/<n> from the shared object catalogue. Load
//     comes from perfbench_loadgen, spawned as a separate process.
//   forkjoin: one unbound driver thread runs jobs back to back; each job
//     forks 64 unbound workers that hash their 4 KiB slice of a seeded
//     256 KiB buffer, add the hash to a shared sum under one mutex_t and
//     sema_v; the driver sema_p's 64 times and checks the sum.
//
// Every layer is measured from outside: spans around the benchmark's own
// calls into public functions, and differences of public counter snapshots
// taken at the start and end of the measured window. The window starts
// after a quarter second of warm-up and lasts --window-ms; run.py launches
// the program many times per run and pools or takes medians.
//
// Output is "key value" lines on stdout (run.py turns them into the metric
// JSON); lines starting with "error" are failed checks. The window's op
// latencies go to --latency-out for run.py to pool. With --trace-dir the
// run is traced: Stats::Enable(), heap allocations are counted, spans are
// kept in memory and written as Chrome trace JSON to <dir>/program.json.
//
//   perfbench_program --workload http_keepalive --seed 1 --window-ms 2000
//       --loadgen PATH [--latency-out FILE] [--trace-dir DIR]

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/server.h"
#include "src/io/io.h"
#include "src/introspect/introspect.h"
#include "src/lwp/lwp.h"
#include "src/net/backend.h"
#include "src/net/net.h"
#include "src/stats/stats.h"
#include "src/sync/sync.h"
#include "src/timer/timer.h"
#include "src/util/object_cache.h"

extern char** environ;

// ---- Heap allocation counting (traced runs only) ----------------------------
//
// The binary interposes malloc/calloc/realloc (operator new calls malloc) and
// forwards to glibc's implementation; the count only moves while enabled.

namespace perfbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace perfbench

// Sanitizer runtimes bring their own allocator, which this would bypass, so
// sanitizer builds leave malloc alone and count nothing.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
extern "C" {
void* __libc_malloc(size_t size);
void* __libc_calloc(size_t n, size_t size);
void* __libc_realloc(void* p, size_t size);

void* malloc(size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return __libc_malloc(size);
}

void* calloc(size_t n, size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return __libc_realloc(p, size);
}
}
#endif

namespace perfbench {
namespace {

using sunmt::HistogramSnapshot;
using sunmt::LatencyStat;

constexpr int64_t kWarmupNs = 250ll * 1000 * 1000;
constexpr int64_t kDrainTimeoutNs = 5000ll * 1000 * 1000;
constexpr size_t kSpanCapacity = 1 << 20;
constexpr size_t kSpanExportLimit = 50000;
constexpr int kWorkers = 64;
constexpr size_t kSliceBytes = 4096;
constexpr int kMaxPrintedFailures = 20;
constexpr int kStatCount = static_cast<int>(LatencyStat::kCount);

// Object caches reported per name; a cache a workload never touches reads 0.
constexpr const char* kObjectCaches[] = {
    "stack", "http.conn_arg", "net.timeout_ctx", "sema.timeout_ctx",
    "cv.timeout_ctx"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int64_t window_ms = 2000;
  const char* loadgen = nullptr;
  const char* latency_out = nullptr;
  const char* trace_dir = nullptr;
};

SpanLog* g_spans = nullptr;  // non-null in traced runs

void Emit(const char* key, double value) { printf("%s %.9g\n", key, value); }

void SleepUntil(int64_t t_ns) {
  struct timespec ts;
  ts.tv_sec = t_ns / 1000000000;
  ts.tv_nsec = t_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// ---- Counter snapshots -------------------------------------------------------

struct HttpParts {
  sunmt::HttpServer* server = nullptr;
  sunmt::HttpCache* cache = nullptr;
  sunmt::HttpAccessLog* log = nullptr;
};

struct Snapshot {
  int64_t t_ns = 0;
  struct rusage ru = {};
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  sunmt::SchedStatsSnapshot sched = {};
  uint64_t net_parks = 0;
  uint64_t net_wakes = 0;
  HistogramSnapshot hist[kStatCount];
  sunmt::TimerEngineStats timer = {};
  uint64_t fallback_allocs = 0;
  std::map<std::string, sunmt::ObjectCacheStats> caches;
  sunmt::HttpCache::Stats cache = {};
  sunmt::HttpServerStats server = {};
  uint64_t log_lines = 0;
  uint64_t heap_allocs = 0;
  size_t lwps = 0;
};

// read(2)/write(2)-family syscall counts of this process, from /proc/self/io.
void ReadProcIo(uint64_t* syscr, uint64_t* syscw) {
  char buf[512];
  int fd = open("/proc/self/io", O_RDONLY);
  ssize_t n = fd >= 0 ? read(fd, buf, sizeof(buf) - 1) : -1;
  if (fd >= 0) {
    close(fd);
  }
  buf[n > 0 ? n : 0] = '\0';
  const char* r = strstr(buf, "syscr: ");
  const char* w = strstr(buf, "syscw: ");
  *syscr = r != nullptr ? std::strtoull(r + 7, nullptr, 10) : 0;
  *syscw = w != nullptr ? std::strtoull(w + 7, nullptr, 10) : 0;
}

// Peak resident set of this process image (VmHWM). Not ru_maxrss: Linux
// carries that across fork and exec, so it would report the launching
// process's peak whenever that was larger.
uint64_t PeakRssKib() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kib = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  fclose(f);
  return kib;
}

void Take(const HttpParts& http, Snapshot* s) {
  s->t_ns = NowNs();
  getrusage(RUSAGE_SELF, &s->ru);
  ReadProcIo(&s->syscr, &s->syscw);
  s->sched = sunmt::SnapshotSchedStats();
  s->net_parks = sunmt::GlobalSchedStats().net_parks.Load();
  s->net_wakes = sunmt::GlobalSchedStats().net_wakes.Load();
  for (int i = 0; i < kStatCount; ++i) {
    s->hist[i] = HistogramSnapshot{};
    sunmt::Stats::Snapshot(static_cast<LatencyStat>(i), &s->hist[i]);
  }
  s->timer = sunmt::timer_engine_stats();
  s->fallback_allocs = sunmt::ObjectCacheFallbackAllocs();
  sunmt::ObjectCacheStats caches[32];
  size_t n = sunmt::ObjectCacheSnapshotAll(caches, 32);
  for (size_t i = 0; i < n; ++i) {
    s->caches[caches[i].name] = caches[i];
  }
  if (http.server != nullptr) {
    s->cache = http.cache->SnapshotStats();
    s->server = http.server->SnapshotStats();
    s->log_lines = http.log->lines_written();
  }
  s->heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  s->lwps = sunmt::LwpRegistry::Count();
}

HistogramSnapshot Delta(const Snapshot& a, const Snapshot& b, LatencyStat stat) {
  const HistogramSnapshot& x = a.hist[static_cast<int>(stat)];
  const HistogramSnapshot& y = b.hist[static_cast<int>(stat)];
  HistogramSnapshot d;
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    d.buckets[i] = y.buckets[i] - x.buckets[i];
  }
  d.count = y.count - x.count;
  d.sum = y.sum - x.sum;
  d.max = y.max;
  return d;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double RusageCpuUs(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Span-derived per-layer values; the workload fills the ones it has.
struct SpanMetrics {
  double create_call_us_p50 = 0;
  double start_delay_us_p50 = 0;
  double start_delay_us_p99 = 0;
  double lock_acquire_us_p50 = 0;
  double lock_acquire_us_p99 = 0;
  double handler_us_p50 = 0;
  double handler_us_p99 = 0;
};

// Per-layer metrics over the window [a, b] (see README.md for the table of
// what each should move, on which workload).
void EmitLayers(const Snapshot& a, const Snapshot& b, double ops,
                const SpanMetrics& sm,
                const std::map<std::string, std::string>& client) {
  auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
  auto q_us = [](const HistogramSnapshot& h, double q) {
    return h.Quantile(q) / 1e3;
  };
  auto client_us = [&client](const char* key) {
    auto it = client.find(key);
    return it == client.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr) / 1e3;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  Emit("core.dispatches_per_op",
       per_op(static_cast<double>(b.sched.dispatches - a.sched.dispatches)));
  Emit("core.notify_wakes_per_op",
       per_op(static_cast<double>(b.sched.notify_wakes - a.sched.notify_wakes)));
  Emit("core.steals_per_op",
       per_op(static_cast<double>(b.sched.steals - a.sched.steals)));
  Emit("core.box_wakes_per_op",
       per_op(static_cast<double>(b.sched.box_wakes - a.sched.box_wakes)));
  HistogramSnapshot dispatch = Delta(a, b, LatencyStat::kDispatchLatency);
  Emit("core.dispatch_wait_p50_us", q_us(dispatch, 0.50));
  Emit("core.dispatch_wait_p99_us", q_us(dispatch, 0.99));
  HistogramSnapshot runq = Delta(a, b, LatencyStat::kRunQueueLockWait);
  Emit("core.runq_lock_waits_per_op", per_op(static_cast<double>(runq.count)));
  Emit("core.runq_lock_wait_p99_us", q_us(runq, 0.99));
  Emit("core.threads_created_per_op",
       per_op(static_cast<double>(b.sched.threads_created -
                                  a.sched.threads_created)));
  Emit("core.create_call_us_p50", sm.create_call_us_p50);
  Emit("core.start_delay_us_p50", sm.start_delay_us_p50);
  Emit("core.start_delay_us_p99", sm.start_delay_us_p99);

  HistogramSnapshot kwait = Delta(a, b, LatencyStat::kKernelWait);
  Emit("lwp.kernel_waits_per_op", per_op(static_cast<double>(kwait.count)));
  Emit("lwp.kernel_wait_p50_us", q_us(kwait, 0.50));
  Emit("lwp.count", static_cast<double>(b.lwps));

  Emit("proc.vol_ctx_switches_per_op",
       per_op(static_cast<double>(b.ru.ru_nvcsw - a.ru.ru_nvcsw)));
  Emit("proc.invol_ctx_switches_per_op",
       per_op(static_cast<double>(b.ru.ru_nivcsw - a.ru.ru_nivcsw)));
  Emit("proc.syscr_per_op", per_op(static_cast<double>(b.syscr - a.syscr)));
  Emit("proc.syscw_per_op", per_op(static_cast<double>(b.syscw - a.syscw)));

  Emit("net.parks_per_op", per_op(static_cast<double>(b.net_parks - a.net_parks)));
  Emit("net.wakes_per_op", per_op(static_cast<double>(b.net_wakes - a.net_wakes)));
  Emit("net.epoll_batch_mean", Delta(a, b, LatencyStat::kNetEpollBatch).Mean());
  HistogramSnapshot park = Delta(a, b, LatencyStat::kNetReadinessWait);
  Emit("net.park_wait_p50_us", q_us(park, 0.50));
  Emit("net.park_wait_p99_us", q_us(park, 0.99));

  Emit("timer.arms_per_op", per_op(static_cast<double>(b.timer.arms - a.timer.arms)));
  Emit("timer.cancels_per_op",
       per_op(static_cast<double>(b.timer.cancels - a.timer.cancels)));
  Emit("timer.fires_per_op",
       per_op(static_cast<double>(b.timer.fires - a.timer.fires)));
  Emit("timer.tombstones", static_cast<double>(b.timer.tombstones));

  HistogramSnapshot mutex = Delta(a, b, LatencyStat::kMutexWaitAdaptive);
  HistogramSnapshot spun = Delta(a, b, LatencyStat::kMutexWaitAdaptiveSpin);
  Emit("sync.mutex_waits_per_op", per_op(static_cast<double>(mutex.count)));
  Emit("sync.mutex_wait_p50_us", q_us(mutex, 0.50));
  Emit("sync.mutex_wait_p99_us", q_us(mutex, 0.99));
  Emit("sync.mutex_spin_share",
       ratio(static_cast<double>(spun.count), static_cast<double>(mutex.count)));
  Emit("sync.lock_acquire_us_p50", sm.lock_acquire_us_p50);
  Emit("sync.lock_acquire_us_p99", sm.lock_acquire_us_p99);
  HistogramSnapshot sema = Delta(a, b, LatencyStat::kSemaWaitLocal);
  Emit("sync.sema_waits_per_op", per_op(static_cast<double>(sema.count)));
  Emit("sync.sema_wait_p50_us", q_us(sema, 0.50));
  Emit("sync.rwlock_waits_per_op",
       per_op(static_cast<double>(Delta(a, b, LatencyStat::kRwlockWaitLocal).count)));

  double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  Emit("http.cache_hit_ratio", ratio(hits, hits + misses));
  Emit("http.cache_inserts_per_op",
       per_op(static_cast<double>(b.cache.inserts - a.cache.inserts)));
  Emit("http.cache_evictions_per_op",
       per_op(static_cast<double>(b.cache.evictions - a.cache.evictions)));
  Emit("http.accepts_per_op",
       per_op(static_cast<double>(b.server.accepted - a.server.accepted)));
  Emit("http.log_lines_per_op", per_op(static_cast<double>(b.log_lines - a.log_lines)));
  Emit("http.handler_us_p50", sm.handler_us_p50);
  Emit("http.handler_us_p99", sm.handler_us_p99);

  Emit("client.connect_us_p50", client_us("connect_p50_ns"));
  Emit("client.connect_us_p99", client_us("connect_p99_ns"));
  Emit("client.response_wait_us_p50", client_us("response_wait_p50_ns"));
  Emit("client.response_wait_us_p99", client_us("response_wait_p99_ns"));

  Emit("objcache.fallback_allocs_per_op",
       per_op(static_cast<double>(b.fallback_allocs - a.fallback_allocs)));
  for (const char* name : kObjectCaches) {
    sunmt::ObjectCacheStats x;
    sunmt::ObjectCacheStats y;
    if (auto it = a.caches.find(name); it != a.caches.end()) x = it->second;
    if (auto it = b.caches.find(name); it != b.caches.end()) y = it->second;
    double m = static_cast<double>(y.misses - x.misses);
    double h = static_cast<double>(y.hits - x.hits);
    std::string key = std::string("objcache.") + name + ".miss_ratio";
    Emit(key.c_str(), ratio(m, m + h));
  }
  Emit("alloc.heap_allocs_per_op",
       per_op(static_cast<double>(b.heap_allocs - a.heap_allocs)));
}

// End-to-end metrics of the window [a, b] over `ops` verified ops
// (peak_rss_mb and setup_s are emitted at exit and by the workload).
void EmitEndToEnd(const Snapshot& a, const Snapshot& b, uint64_t ops,
                  int64_t p50_ns, int64_t p99_ns) {
  double window_s = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
  Emit("ops", static_cast<double>(ops));
  Emit("window_s", window_s);
  Emit("throughput_ops_s", static_cast<double>(ops) / window_s);
  Emit("latency_p50_us", Us(p50_ns));
  Emit("latency_p99_us", Us(p99_ns));
  Emit("cpu_us_per_op", ops > 0 ? (RusageCpuUs(b.ru) - RusageCpuUs(a.ru)) /
                                      static_cast<double>(ops)
                                : 0.0);
}

// End-of-run health checks shared by every workload.
void CheckCommon(const Snapshot& a, const Snapshot& b, int service_lwps,
                 std::vector<std::string>* errors) {
  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (b.lwps > static_cast<size_t>(cpus + service_lwps)) {
    errors->push_back("lwp.count " + std::to_string(b.lwps) + " > nproc " +
                      std::to_string(cpus) + " + " +
                      std::to_string(service_lwps) + " service LWPs");
  }
  if (b.timer.fires != a.timer.fires) {
    errors->push_back(std::to_string(b.timer.fires - a.timer.fires) +
                      " timer fires in the window");
  }
}

void EmitFingerprint() {
  printf("net_backend %s\n", sunmt::net_backend_name());
  Emit("pool_lwps", sunmt::Runtime::Get().pool_size());
}

void FinishTrace(const Options& opt, std::vector<Span>* spans) {
  std::vector<int64_t> self = SelfTimes(*spans);
  PrintSelfTimeTable(stderr, "program", *spans, self);
  Emit("spans_dropped", static_cast<double>(g_spans->dropped()));
  std::string path = std::string(opt.trace_dir) + "/program.json";
  if (!WriteChromeTrace(path.c_str(), "perfbench_program", getpid(), *spans,
                        self, kSpanExportLimit)) {
    fprintf(stderr, "program: cannot write %s\n", path.c_str());
  }
}

// ---- HTTP workloads -------------------------------------------------------------

void HandleObject(const BodyRing& ring, const sunmt::HttpMessage& req,
                  sunmt::HttpExchange* ex) {
  int64_t start = g_spans != nullptr ? NowNs() : 0;
  uint32_t n = 0;
  if (!ParseObjectPath(req.target, &n)) {
    return;  // the server's default 404
  }
  ex->Respond(200, "application/octet-stream", ring.Body(n));
  if (g_spans != nullptr) {
    const std::string* id = req.FindHeader("X-Bench-Id");
    g_spans->Add({start, NowNs(),
                  id != nullptr ? std::strtoull(id->c_str(), nullptr, 10) : 0,
                  -1, static_cast<uint32_t>(ex->conn_id()), "handler"});
  }
}

// Spawns the load generator with its stdout on a pipe; returns the read end.
int SpawnLoadgen(const Options& opt, uint16_t port, int64_t begin_ns,
                 int64_t end_ns, pid_t* pid) {
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) {
    return -1;
  }
  std::vector<std::string> args = {
      opt.loadgen,        "--port",     std::to_string(port),
      "--workload",       opt.workload, "--seed",
      std::to_string(opt.seed),         "--begin-ns",
      std::to_string(begin_ns),         "--end-ns",
      std::to_string(end_ns)};
  if (opt.latency_out != nullptr) {
    args.push_back("--latency-out");
    args.push_back(opt.latency_out);
  }
  if (opt.trace_dir != nullptr) {
    args.push_back("--trace-out");
    args.push_back(std::string(opt.trace_dir) + "/loadgen.json");
  }
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  int rc = posix_spawn(pid, opt.loadgen, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipefd[1]);
  if (rc != 0) {
    close(pipefd[0]);
    errno = rc;
    return -1;
  }
  return pipefd[0];
}

// Reads the generator's "key value" lines until it exits.
bool CollectLoadgen(int fd, pid_t pid, std::map<std::string, std::string>* out) {
  std::string text;
  char buf[4096];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    size_t sp = line.find(' ');
    if (sp != std::string::npos) {
      (*out)[line.substr(0, sp)] = line.substr(sp + 1);
    }
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

uint64_t Field(const std::map<std::string, std::string>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

int RunHttp(const Options& opt, int64_t t0) {
  BodyRing ring;
  std::vector<std::string> errors;
  if (sunmt::net_poller_start() != 0) {
    fprintf(stderr, "program: net_poller_start failed\n");
    return 1;
  }
  int devnull = open("/dev/null", O_WRONLY | O_CLOEXEC);
  sunmt::HttpCache cache(/*shards=*/16, /*max_bytes=*/1 << 20);
  sunmt::HttpAccessLog access_log(devnull);
  sunmt::HttpServerConfig config;
  config.cache = &cache;
  config.access_log = &access_log;
  // The server is stopped before `ring` goes out of scope.
  config.handler = [&ring](const sunmt::HttpMessage& req,
                           sunmt::HttpExchange* ex) {
    HandleObject(ring, req, ex);
  };
  sunmt::HttpServer server(std::move(config));
  if (devnull < 0 || server.Start() != 0) {
    fprintf(stderr, "program: server start failed: errno %d\n",
            sunmt::thread_errno());
    return 1;
  }
  HttpParts http{&server, &cache, &access_log};

  int64_t begin_ns = NowNs() + kWarmupNs;
  int64_t end_ns = begin_ns + opt.window_ms * 1000000;
  pid_t pid = 0;
  int fd = SpawnLoadgen(opt, server.port(), begin_ns, end_ns, &pid);
  if (fd < 0) {
    fprintf(stderr, "program: cannot spawn %s: %s\n", opt.loadgen,
            strerror(errno));
    return 1;
  }
  auto a = std::make_unique<Snapshot>();
  auto b = std::make_unique<Snapshot>();
  SleepUntil(begin_ns);
  Take(http, a.get());
  SleepUntil(end_ns);
  Take(http, b.get());
  std::map<std::string, std::string> client;
  if (!CollectLoadgen(fd, pid, &client)) {
    errors.push_back("load generator exited abnormally");
  }
  uint64_t first_op_ns = Field(client, "first_op_ns");
  Emit("setup_s",
       first_op_ns > 0
           ? static_cast<double>(static_cast<int64_t>(first_op_ns) - t0) / 1e9
           : 0.0);
  Emit("attempted", static_cast<double>(Field(client, "attempted")));
  Emit("failed", static_cast<double>(Field(client, "failed")));

  // Health: every connection drained, only the listener still registered.
  int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (server.active_connections() > 0 && NowNs() < deadline) {
    SleepUntil(NowNs() + 1000000);
  }
  if (server.active_connections() != 0) {
    errors.push_back(std::to_string(server.active_connections()) +
                     " connections still active after the run");
  }
  sunmt::NetBackendStats net = {};
  sunmt::net_backend_snapshot(&net);
  if (net.registered != 1) {
    errors.push_back(std::to_string(net.registered) +
                     " fds registered after the run (want only the listener)");
  }

  // The client took the latency percentiles over its own samples.
  uint64_t ops = Field(client, "latency_samples");
  EmitEndToEnd(*a, *b, ops,
               static_cast<int64_t>(Field(client, "latency_p50_ns")),
               static_cast<int64_t>(Field(client, "latency_p99_ns")));
  CheckCommon(*a, *b, /*service_lwps=*/2, &errors);
  if (opt.trace_dir != nullptr) {
    SpanMetrics sm;
    std::vector<Span> spans = g_spans->Take();
    std::vector<int64_t> handler = Durations(spans, "handler", a->t_ns, b->t_ns);
    sm.handler_us_p50 = Us(NearestRank(handler, 0.50));
    sm.handler_us_p99 = Us(NearestRank(handler, 0.99));
    EmitLayers(*a, *b, static_cast<double>(ops), sm, client);
    FinishTrace(opt, &spans);
  }

  server.Stop();
  access_log.Stop();
  sunmt::HttpServerStats st = server.SnapshotStats();
  if (st.parse_errors != 0 || st.idle_timeouts != 0 || st.request_timeouts != 0) {
    errors.push_back("server saw " + std::to_string(st.parse_errors) +
                     " parse errors, " + std::to_string(st.idle_timeouts) +
                     " idle timeouts, " + std::to_string(st.request_timeouts) +
                     " request timeouts");
  }
  if (access_log.lines_dropped() != 0 ||
      access_log.lines_written() != st.responses) {
    errors.push_back("access log wrote " +
                     std::to_string(access_log.lines_written()) + " of " +
                     std::to_string(st.responses) + " lines, dropped " +
                     std::to_string(access_log.lines_dropped()));
  }
  close(devnull);
  EmitFingerprint();
  for (const std::string& e : errors) {
    printf("error %s\n", e.c_str());
  }
  return 0;
}

// ---- forkjoin -----------------------------------------------------------------------

struct ForkJoin;

struct WorkerArg {
  ForkJoin* fj;
  int index;
};

// Timestamps a traced worker leaves for the driver, which turns them into
// spans after the join (workers never touch the span log).
struct WorkerTimes {
  int64_t entry = 0;
  int64_t computed = 0;
  int64_t locked = 0;
  int64_t done = 0;
};

struct ForkJoin {
  std::vector<unsigned char> buffer;  // kWorkers slices of kSliceBytes
  uint64_t expected = 0;
  sunmt::mutex_t lock;
  uint64_t sum = 0;  // guarded by lock
  sunmt::sema_t done;
  WorkerArg args[kWorkers];
  WorkerTimes times[kWorkers];
  bool traced = false;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;

  // Driver results, read by main after thread_wait.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t first_op_ns = 0;
  std::vector<int64_t> latency_ns;
};

// FNV-1a over the slice's bytes, a few microseconds per worker: enough that
// the pool LWPs stay busy through a job, so job time is thread operations
// plus compute rather than idle-LWP wake-ups, whose cost drifts with the
// host's load from run to run.
uint64_t SliceHash(const unsigned char* slice) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < kSliceBytes; ++i) {
    h = (h ^ slice[i]) * 0x100000001b3ull;
  }
  return h;
}

void WorkerMain(void* p) {
  auto* arg = static_cast<WorkerArg*>(p);
  ForkJoin* fj = arg->fj;
  int i = arg->index;
  int64_t entry = fj->traced ? NowNs() : 0;
  uint64_t h = SliceHash(fj->buffer.data() + static_cast<size_t>(i) * kSliceBytes);
  int64_t computed = fj->traced ? NowNs() : 0;
  sunmt::mutex_enter(&fj->lock);
  int64_t locked = fj->traced ? NowNs() : 0;
  fj->sum += h;
  sunmt::mutex_exit(&fj->lock);
  if (fj->traced) {
    fj->times[i] = {entry, computed, locked, NowNs()};
  }
  sunmt::sema_v(&fj->done);
}

// Job -> create_loop (-> thread_create x64) / join_wait; worker -> start_delay
// / compute / lock_acquire. Driver lane 0, worker i on lane 1 + i.
void RecordJobSpans(ForkJoin* fj, uint64_t job, int64_t t0, int64_t t_created,
                    int64_t t1, const int64_t (*create)[2]) {
  int32_t root = g_spans->Reserve();
  int32_t loop = g_spans->Reserve();
  for (int i = 0; i < kWorkers; ++i) {
    g_spans->Add({create[i][0], create[i][1], job, loop, 0, "thread_create"});
  }
  g_spans->Set(loop, {t0, t_created, job, root, 0, "create_loop"});
  g_spans->Add({t_created, t1, job, root, 0, "join_wait"});
  for (int i = 0; i < kWorkers; ++i) {
    const WorkerTimes& w = fj->times[i];
    int64_t ready = std::min(create[i][1], w.entry);
    auto lane = static_cast<uint32_t>(1 + i);
    int32_t worker = g_spans->Reserve();
    g_spans->Add({ready, w.entry, job, worker, lane, "start_delay"});
    g_spans->Add({w.entry, w.computed, job, worker, lane, "compute"});
    g_spans->Add({w.computed, w.locked, job, worker, lane, "lock_acquire"});
    g_spans->Set(worker, {ready, w.done, job, root, lane, "worker"});
  }
  g_spans->Set(root, {t0, t1, job, -1, 0, "job"});
}

void DriverMain(void* p) {
  auto* fj = static_cast<ForkJoin*>(p);
  int64_t create[kWorkers][2] = {};
  for (uint64_t job = 0;; ++job) {
    int64_t t0 = NowNs();
    if (t0 >= fj->end_ns) {
      break;
    }
    int created = 0;
    for (int i = 0; i < kWorkers; ++i) {
      if (fj->traced) {
        create[i][0] = NowNs();
      }
      if (sunmt::thread_create(nullptr, 0, &WorkerMain, &fj->args[i], 0) != 0) {
        created++;
      }
      if (fj->traced) {
        create[i][1] = NowNs();
      }
    }
    int64_t t_created = NowNs();
    for (int i = 0; i < created; ++i) {
      sunmt::sema_p(&fj->done);
    }
    sunmt::mutex_enter(&fj->lock);
    uint64_t sum = fj->sum;
    fj->sum = 0;
    sunmt::mutex_exit(&fj->lock);
    int64_t t1 = NowNs();
    fj->attempted++;
    if (created != kWorkers || sum != fj->expected) {
      if (fj->failed++ < kMaxPrintedFailures) {
        fprintf(stderr,
                "program: check failed: job %" PRIu64 " sum (%d/%d workers "
                "created, sum %016" PRIx64 ", want %016" PRIx64 ")\n",
                job, created, kWorkers, sum, fj->expected);
      }
      continue;
    }
    if (fj->first_op_ns == 0) {
      fj->first_op_ns = t1;
    }
    if (t1 >= fj->begin_ns && t1 < fj->end_ns) {
      fj->latency_ns.push_back(t1 - t0);
    }
    if (fj->traced && t0 >= fj->begin_ns && t1 < fj->end_ns) {
      RecordJobSpans(fj, job, t0, t_created, t1, create);
    }
  }
}

int RunForkJoin(const Options& opt, int64_t t0) {
  std::vector<std::string> errors;
  auto fj = std::make_unique<ForkJoin>();
  fj->traced = opt.trace_dir != nullptr;
  fj->buffer.resize(kWorkers * kSliceBytes);
  Rng rng(opt.seed);
  for (unsigned char& byte : fj->buffer) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  for (int i = 0; i < kWorkers; ++i) {
    fj->expected += SliceHash(fj->buffer.data() + static_cast<size_t>(i) * kSliceBytes);
    fj->args[i] = {fj.get(), i};
  }
  sunmt::mutex_init(&fj->lock, 0, nullptr);
  sunmt::sema_init(&fj->done, 0, 0, nullptr);
  fj->latency_ns.reserve(static_cast<size_t>(opt.window_ms) * 20);

  fj->begin_ns = NowNs() + kWarmupNs;
  fj->end_ns = fj->begin_ns + opt.window_ms * 1000000;
  sunmt::thread_id_t driver = sunmt::thread_create(nullptr, 0, &DriverMain,
                                                   fj.get(), sunmt::THREAD_WAIT);
  if (driver == 0) {
    fprintf(stderr, "program: cannot create the driver thread\n");
    return 1;
  }
  auto a = std::make_unique<Snapshot>();
  auto b = std::make_unique<Snapshot>();
  SleepUntil(fj->begin_ns);
  Take(HttpParts{}, a.get());
  SleepUntil(fj->end_ns);
  Take(HttpParts{}, b.get());
  sunmt::thread_wait(driver);
  Emit("setup_s", fj->first_op_ns > 0
                      ? static_cast<double>(fj->first_op_ns - t0) / 1e9
                      : 0.0);
  Emit("attempted", static_cast<double>(fj->attempted));
  Emit("failed", static_cast<double>(fj->failed));
  std::sort(fj->latency_ns.begin(), fj->latency_ns.end());
  if (opt.latency_out != nullptr &&
      !WriteSamples(opt.latency_out, fj->latency_ns)) {
    errors.push_back(std::string("cannot write ") + opt.latency_out);
  }
  EmitEndToEnd(*a, *b, fj->latency_ns.size(), NearestRank(fj->latency_ns, 0.50),
               NearestRank(fj->latency_ns, 0.99));
  CheckCommon(*a, *b, /*service_lwps=*/1, &errors);
  if (fj->traced) {
    SpanMetrics sm;
    std::vector<Span> spans = g_spans->Take();
    std::vector<int64_t> create = Durations(spans, "thread_create", a->t_ns, b->t_ns);
    std::vector<int64_t> delay = Durations(spans, "start_delay", a->t_ns, b->t_ns);
    std::vector<int64_t> lock = Durations(spans, "lock_acquire", a->t_ns, b->t_ns);
    sm.create_call_us_p50 = Us(NearestRank(create, 0.50));
    sm.start_delay_us_p50 = Us(NearestRank(delay, 0.50));
    sm.start_delay_us_p99 = Us(NearestRank(delay, 0.99));
    sm.lock_acquire_us_p50 = Us(NearestRank(lock, 0.50));
    sm.lock_acquire_us_p99 = Us(NearestRank(lock, 0.99));
    EmitLayers(*a, *b, static_cast<double>(fj->latency_ns.size()), sm, {});
    FinishTrace(opt, &spans);
  }
  EmitFingerprint();
  for (const std::string& e : errors) {
    printf("error %s\n", e.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  int64_t t0 = NowNs();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      fprintf(stderr, "program: %s needs a value\n", argv[i]);
      return 2;
    }
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--window-ms") {
      opt.window_ms = std::strtoll(v, nullptr, 10);
    } else if (a == "--loadgen") {
      opt.loadgen = v;
    } else if (a == "--latency-out") {
      opt.latency_out = v;
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      fprintf(stderr, "program: unknown argument %s\n", argv[i - 1]);
      return 2;
    }
  }
  bool http = opt.workload == "http_keepalive" || opt.workload == "http_churn";
  if ((!http && opt.workload != "forkjoin") || opt.window_ms < 1 ||
      (http && opt.loadgen == nullptr)) {
    fprintf(stderr,
            "usage: perfbench_program --workload http_keepalive|http_churn|"
            "forkjoin --seed N --window-ms MS [--loadgen PATH] "
            "[--latency-out FILE] [--trace-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<SpanLog> spans;
  if (opt.trace_dir != nullptr) {
    spans = std::make_unique<SpanLog>(kSpanCapacity);
    g_spans = spans.get();
    sunmt::Stats::Enable();
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  int rc = http ? RunHttp(opt, t0) : RunForkJoin(opt, t0);
  Emit("peak_rss_mb", static_cast<double>(PeakRssKib()) / 1024.0);
  fflush(stdout);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
