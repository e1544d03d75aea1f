// HTTP load generator for the http_keepalive and http_churn workloads.
//
// A separate process on plain POSIX blocking sockets that makes no sunmt
// calls, so the client's cost never lands on the program being measured.
// Each client thread runs a closed loop: draw a path (seeded), send one GET,
// read and check the whole response, repeat.
//
//   http_keepalive: one persistent connection per client.
//   http_churn: a fresh connection per request with "Connection: close",
//     closed abortively (SO_LINGER {1, 0}) once the response is checked, so
//     no TIME_WAIT entries pile up and drift the kernel's port reuse.
//
// Ops completing in [--begin-ns, --end-ns) (CLOCK_MONOTONIC, the clock the
// program under test snapshots its counters on) are the measured window; the
// ones before it are warm-up. Every response is checked for status 200, the
// Content-Length and the exact body bytes of its path; a failure is counted
// and printed with the check it failed. Results go to stdout as "key value"
// lines for the program under test to read, and the window's latency
// samples to --latency-out.
//
//   perfbench_loadgen --port P --workload http_keepalive --seed N
//       --begin-ns T --end-ns T [--latency-out FILE] [--trace-out FILE]

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr size_t kSpanCapacity = 1 << 20;
constexpr size_t kSpanExportLimit = 50000;
constexpr int kMaxPrintedFailures = 20;

struct Options {
  uint16_t port = 0;
  bool churn = false;
  uint64_t seed = 1;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  const char* latency_out = nullptr;
  const char* trace_out = nullptr;
};

struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t first_op_ns = 0;
  std::vector<int64_t> latency_ns;        // window ops only
  std::vector<int64_t> connect_ns;        // traced window ops only
  std::vector<int64_t> response_wait_ns;  // traced window ops only
};

std::atomic<int> g_printed_failures{0};

void ReportFailure(const char* check, uint32_t n, const char* detail) {
  if (g_printed_failures.fetch_add(1) < kMaxPrintedFailures) {
    fprintf(stderr, "loadgen: check failed: %s (GET /obj/%u)%s%s\n", check, n,
            detail[0] != '\0' ? ": " : "", detail);
  }
}

int Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

void AbortiveClose(int fd) {
  struct linger lg = {1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);
}

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// Reads one response into `buf` and checks it against the expected body.
// Returns nullptr on success, else the name of the failed check (with detail
// in `detail`). `first_byte_ns` is set when the first byte arrives.
const char* ReadResponse(int fd, std::string_view expected, std::string* buf,
                         int64_t* first_byte_ns, char* detail,
                         size_t detail_size) {
  buf->clear();
  size_t head_end = std::string::npos;
  size_t want = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buf->find("\r\n\r\n");
      if (head_end != std::string::npos) {
        head_end += 4;
        std::string_view head(buf->data(), head_end);
        if (head.substr(0, 13) != "HTTP/1.1 200 ") {
          snprintf(detail, detail_size, "%.*s",
                   static_cast<int>(std::min<size_t>(head.find('\r'), 40)),
                   head.data());
          return "status 200";
        }
        size_t cl = head.find("\r\nContent-Length: ");
        if (cl == std::string_view::npos) {
          return "Content-Length present";
        }
        long long len = std::strtoll(head.data() + cl + 18, nullptr, 10);
        if (len != static_cast<long long>(expected.size())) {
          snprintf(detail, detail_size, "got %lld, want %zu", len,
                   expected.size());
          return "Content-Length";
        }
        want = head_end + expected.size();
      }
    }
    if (head_end != std::string::npos && buf->size() >= want) {
      break;
    }
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      snprintf(detail, detail_size, "%s",
               n == 0 ? "connection closed" : strerror(errno));
      return "complete response";
    }
    if (buf->empty()) {
      *first_byte_ns = NowNs();
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
  if (buf->size() != want) {
    return "no bytes after the body";
  }
  if (std::memcmp(buf->data() + head_end, expected.data(), expected.size()) !=
      0) {
    return "body bytes";
  }
  return nullptr;
}

void ClientMain(const Options& opt, int client, const BodyRing& ring,
                SpanLog* spans, ClientResult* out) {
  Rng rng(Mix64(opt.seed) ^ Mix64(static_cast<uint64_t>(client) + 1));
  const uint32_t objects = opt.churn ? kChurnObjects : kHotObjects;
  const uint64_t id_base = static_cast<uint64_t>(client + 1) << 48;
  std::string buf;
  buf.reserve(16384);
  char request[160];
  char detail[96];
  int fd = -1;
  for (uint64_t seq = 0;; ++seq) {
    if (NowNs() >= opt.end_ns) {
      break;
    }
    uint32_t n = rng.Below(objects);
    std::string_view expected = ring.Body(n);
    uint64_t id = id_base | seq;
    int len = snprintf(request, sizeof(request),
                       "GET /obj/%u HTTP/1.1\r\nHost: perfbench\r\n%s", n,
                       opt.churn ? "Connection: close\r\n" : "");
    if (spans != nullptr) {
      len += snprintf(request + len, sizeof(request) - static_cast<size_t>(len),
                      "X-Bench-Id: %" PRIu64 "\r\n", id);
    }
    len += snprintf(request + len, sizeof(request) - static_cast<size_t>(len),
                    "\r\n");
    out->attempted++;
    detail[0] = '\0';

    int64_t t_connect = NowNs();
    if (fd < 0) {
      fd = Connect(opt.port);
    }
    int64_t t0 = NowNs();
    const char* failed = nullptr;
    int64_t t_sent = t0;
    int64_t t_first = t0;
    if (fd < 0) {
      snprintf(detail, sizeof(detail), "%s", strerror(errno));
      failed = "connect";
    } else if (!WriteAll(fd, request, static_cast<size_t>(len))) {
      snprintf(detail, sizeof(detail), "%s", strerror(errno));
      failed = "send request";
    } else {
      t_sent = NowNs();
      failed = ReadResponse(fd, expected, &buf, &t_first, detail,
                            sizeof(detail));
    }
    int64_t t1 = NowNs();
    if (opt.churn || failed != nullptr) {
      if (fd >= 0) {
        AbortiveClose(fd);
      }
      fd = -1;
    }
    if (failed != nullptr) {
      out->failed++;
      ReportFailure(failed, n, detail);
      continue;
    }
    if (out->first_op_ns == 0) {
      out->first_op_ns = t1;
    }
    if (t1 < opt.begin_ns || t1 >= opt.end_ns) {
      continue;
    }
    out->latency_ns.push_back(t1 - t0);
    if (spans == nullptr || t_connect < opt.begin_ns) {
      continue;
    }
    // Request -> connect (churn only) / send / response_wait / receive.
    int32_t root = spans->Reserve();
    auto lane = static_cast<uint32_t>(client);
    if (opt.churn) {
      spans->Add({t_connect, t0, id, root, lane, "connect"});
      out->connect_ns.push_back(t0 - t_connect);
    }
    spans->Add({t0, t_sent, id, root, lane, "send"});
    spans->Add({t_sent, t_first, id, root, lane, "response_wait"});
    spans->Add({t_first, t1, id, root, lane, "receive"});
    spans->Set(root, {opt.churn ? t_connect : t0, t1, id, -1, lane, "request"});
    out->response_wait_ns.push_back(t_first - t_sent);
  }
  if (fd >= 0) {
    close(fd);
  }
}

void PrintPercentiles(const char* key, std::vector<int64_t>* v) {
  std::sort(v->begin(), v->end());
  printf("%s_samples %zu\n", key, v->size());
  printf("%s_p50_ns %" PRId64 "\n", key, NearestRank(*v, 0.50));
  printf("%s_p99_ns %" PRId64 "\n", key, NearestRank(*v, 0.99));
}

int Main(int argc, char** argv) {
  // Die with the program under test, and drop the descriptors inherited from
  // it: holding its listening socket would let connects succeed after it is
  // gone, leaving reads that never return.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) {
    return 1;
  }
  closefrom(STDERR_FILENO + 1);

  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      fprintf(stderr, "loadgen: %s needs a value\n", argv[i]);
      return 2;
    } else if (a == "--port") {
      opt.port = static_cast<uint16_t>(std::atoi(v));
      ++i;
    } else if (a == "--workload") {
      have_workload = std::string_view(v) == "http_keepalive" ||
                      std::string_view(v) == "http_churn";
      opt.churn = std::string_view(v) == "http_churn";
      ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (a == "--begin-ns") {
      opt.begin_ns = std::strtoll(v, nullptr, 10);
      ++i;
    } else if (a == "--end-ns") {
      opt.end_ns = std::strtoll(v, nullptr, 10);
      ++i;
    } else if (a == "--latency-out") {
      opt.latency_out = v;
      ++i;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
      ++i;
    } else {
      fprintf(stderr, "loadgen: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.port == 0 || !have_workload) {
    fprintf(stderr, "loadgen: --port and --workload http_keepalive|http_churn "
                    "are required\n");
    return 2;
  }

  BodyRing ring;
  std::unique_ptr<SpanLog> spans;
  if (opt.trace_out != nullptr) {
    spans = std::make_unique<SpanLog>(kSpanCapacity);
  }
  ClientResult results[kClients];
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(ClientMain, std::cref(opt), c, std::cref(ring),
                         spans.get(), &results[c]);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  ClientResult all;
  for (ClientResult& r : results) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    if (r.first_op_ns != 0 &&
        (all.first_op_ns == 0 || r.first_op_ns < all.first_op_ns)) {
      all.first_op_ns = r.first_op_ns;
    }
    all.latency_ns.insert(all.latency_ns.end(), r.latency_ns.begin(),
                          r.latency_ns.end());
    all.connect_ns.insert(all.connect_ns.end(), r.connect_ns.begin(),
                          r.connect_ns.end());
    all.response_wait_ns.insert(all.response_wait_ns.end(),
                                r.response_wait_ns.begin(),
                                r.response_wait_ns.end());
  }
  printf("attempted %" PRIu64 "\n", all.attempted);
  printf("failed %" PRIu64 "\n", all.failed);
  printf("first_op_ns %" PRId64 "\n", all.first_op_ns);
  PrintPercentiles("latency", &all.latency_ns);
  if (opt.latency_out != nullptr &&
      !WriteSamples(opt.latency_out, all.latency_ns)) {
    fprintf(stderr, "loadgen: cannot write %s\n", opt.latency_out);
    return 1;
  }
  PrintPercentiles("connect", &all.connect_ns);
  PrintPercentiles("response_wait", &all.response_wait_ns);
  if (spans != nullptr) {
    std::vector<Span> recorded = spans->Take();
    std::vector<int64_t> self = SelfTimes(recorded);
    PrintSelfTimeTable(stderr, "loadgen", recorded, self);
    printf("spans_dropped %" PRIu64 "\n", spans->dropped());
    if (!WriteChromeTrace(opt.trace_out, "perfbench_loadgen", getpid(),
                          recorded, self, kSpanExportLimit)) {
      fprintf(stderr, "loadgen: cannot write %s\n", opt.trace_out);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
