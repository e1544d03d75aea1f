// Ablation A12 — HTTP/1.1 server under keep-alive load.
//
// The echo ablation (A11) proves the LWP economics on a toy protocol; this
// one proves them on the full src/http stack: incremental request parsing,
// the sharded response cache, and writev-based responses, with one unbound
// thread per connection. Two phases — 1k and ~10k keep-alive connections —
// each drive 8 in-process client threads round-robin over their share of the
// connections (every connection sees traffic, most sit parked) and record
// reqs/s, p50, and p99 request latency plus the LWP count, which must stay
// below 2x the configured concurrency at 10k connections or the run fails:
// the server runs on ~#LWPs, not ~#connections.
//
// The 10k phase clamps to the fd rlimit (2 fds per connection, client +
// server end); the JSON records the connection count actually driven.

#include <netinet/in.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/server.h"
#include "src/io/io.h"
#include "src/lwp/lwp.h"
#include "src/net/net.h"
#include "src/util/clock.h"

namespace {

constexpr int kConcurrency = 8;
constexpr int kClients = 8;
constexpr int kReqsPerClient = 500;
constexpr size_t kConnStack = 64 * 1024;  // 10k default stacks would be 2.5GB
constexpr int kFdHeadroom = 256;          // listener, poller, stdio, slack

const char kRequest[] =
    "GET /hello HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n";

std::vector<int> g_client_fd;
sunmt::HttpServer* g_server = nullptr;

struct ClientArgs {
  int id;
  int base;   // first connection index owned by this client
  int count;  // connections owned by this client
  std::vector<double>* latencies_us;
  std::atomic<bool>* failed;
};

// Serial request/response round-robin over this client's connections.
void ClientMain(void* arg) {
  auto* a = static_cast<ClientArgs*>(arg);
  sunmt::HttpParser parser(sunmt::HttpParser::kResponse);
  sunmt::HttpMessage resp;
  char buf[4096];
  for (int i = 0; i < kReqsPerClient; ++i) {
    int fd = g_client_fd[a->base + (i % a->count)];
    int64_t start = sunmt::MonotonicNowNs();
    if (sunmt::net_write(fd, kRequest, sizeof(kRequest) - 1) !=
        static_cast<ssize_t>(sizeof(kRequest) - 1)) {
      a->failed->store(true);
      return;
    }
    for (;;) {
      sunmt::HttpParser::Result r = parser.Next(&resp);
      if (r == sunmt::HttpParser::kMessage) {
        if (resp.status != 200) {
          a->failed->store(true);
          return;
        }
        break;
      }
      if (r == sunmt::HttpParser::kError) {
        a->failed->store(true);
        return;
      }
      ssize_t n = sunmt::net_read(fd, buf, sizeof(buf));
      if (n <= 0) {
        a->failed->store(true);
        return;
      }
      parser.Feed(buf, static_cast<size_t>(n));
    }
    (*a->latencies_us)[i] =
        static_cast<double>(sunmt::MonotonicNowNs() - start) / 1e3;
  }
}

struct ConnectArgs {
  int base;
  int count;
  uint16_t port;
  std::atomic<int>* connected;
};

void ConnectMain(void* arg) {
  auto* a = static_cast<ConnectArgs*>(arg);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(a->port);
  for (int i = 0; i < a->count; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || sunmt::net_register(fd) != 0 ||
        sunmt::net_connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
      fprintf(stderr, "connect %d failed: errno %d\n", a->base + i,
              sunmt::thread_errno());
      abort();
    }
    g_client_fd[a->base + i] = fd;
    a->connected->fetch_add(1);
  }
}

struct PhaseResult {
  int conns;
  double reqs_per_s;
  double p50_us;
  double p99_us;
  size_t lwps;
};

double Percentile(std::vector<double>* v, double p) {
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

PhaseResult RunPhase(int conns) {
  g_client_fd.assign(conns, -1);

  // Connect in parallel: kClients connector threads, each owning a shard.
  std::atomic<int> connected{0};
  ConnectArgs cargs[kClients];
  sunmt::thread_id_t connectors[kClients];
  int per = conns / kClients;
  for (int c = 0; c < kClients; ++c) {
    int base = c * per;
    int count = c == kClients - 1 ? conns - base : per;
    cargs[c] = ConnectArgs{base, count, g_server->port(), &connected};
    connectors[c] = sunmt::thread_create(nullptr, 0, &ConnectMain, &cargs[c],
                                         sunmt::THREAD_WAIT);
  }
  for (int c = 0; c < kClients; ++c) {
    sunmt::thread_wait(connectors[c]);
  }
  // Wait until the server has a thread parked on every connection.
  int64_t deadline = sunmt::MonotonicNowNs() + 60ll * 1000 * 1000 * 1000;
  while (g_server->active_connections() < conns &&
         sunmt::MonotonicNowNs() < deadline) {
    sunmt::io_sleep_ms(5);
  }
  if (g_server->active_connections() < conns) {
    fprintf(stderr, "only %d/%d connections accepted\n",
            g_server->active_connections(), conns);
    abort();
  }

  std::vector<std::vector<double>> latencies(
      kClients, std::vector<double>(kReqsPerClient, 0.0));
  std::atomic<bool> failed{false};
  ClientArgs args[kClients];
  sunmt::thread_id_t clients[kClients];
  int64_t start = sunmt::MonotonicNowNs();
  for (int c = 0; c < kClients; ++c) {
    int base = c * per;
    int count = c == kClients - 1 ? conns - base : per;
    args[c] = ClientArgs{c, base, count, &latencies[c], &failed};
    clients[c] = sunmt::thread_create(nullptr, 0, &ClientMain, &args[c],
                                      sunmt::THREAD_WAIT);
  }
  for (int c = 0; c < kClients; ++c) {
    sunmt::thread_wait(clients[c]);
  }
  double elapsed_s = static_cast<double>(sunmt::MonotonicNowNs() - start) / 1e9;
  if (failed.load()) {
    fprintf(stderr, "a client saw a bad response\n");
    abort();
  }
  size_t lwps = sunmt::LwpRegistry::Count();

  // Teardown: closing the client ends EOFs every connection thread.
  for (int fd : g_client_fd) {
    sunmt::net_unregister(fd);
    close(fd);
  }
  deadline = sunmt::MonotonicNowNs() + 60ll * 1000 * 1000 * 1000;
  while (g_server->active_connections() > 0 &&
         sunmt::MonotonicNowNs() < deadline) {
    sunmt::io_sleep_ms(5);
  }
  if (g_server->active_connections() > 0) {
    fprintf(stderr, "%d connections failed to drain\n",
            g_server->active_connections());
    abort();
  }

  std::vector<double> all;
  all.reserve(static_cast<size_t>(kClients) * kReqsPerClient);
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  PhaseResult r;
  r.conns = conns;
  r.reqs_per_s = static_cast<double>(kClients * kReqsPerClient) / elapsed_s;
  r.p50_us = Percentile(&all, 0.50);
  r.p99_us = Percentile(&all, 0.99);
  r.lwps = lwps;
  return r;
}

}  // namespace

int main() {
  // 2 fds per connection (client + server end); clamp the big phase to the
  // hard rlimit, which this container does not allow raising past 20000.
  struct rlimit rl = {};
  getrlimit(RLIMIT_NOFILE, &rl);
  rl.rlim_cur = rl.rlim_max;
  setrlimit(RLIMIT_NOFILE, &rl);
  int max_conns = static_cast<int>((rl.rlim_max - kFdHeadroom) / 2);
  int big_phase = std::min(10000, max_conns);

  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = kConcurrency;
  sunmt::Runtime::Configure(config);
  sunmt::thread_setconcurrency(kConcurrency);
  if (sunmt::net_poller_start() != 0) {
    fprintf(stderr, "net_poller_start failed\n");
    return 1;
  }

  sunmt::HttpCache cache(/*shards=*/16, /*max_bytes=*/16 << 20);
  sunmt::HttpServerConfig server_config;
  server_config.backlog = 8192;
  server_config.idle_timeout_ns = 300ll * 1000 * 1000 * 1000;
  server_config.conn_stack_bytes = kConnStack;
  server_config.cache = &cache;
  server_config.handler = [](const sunmt::HttpMessage&,
                             sunmt::HttpExchange* ex) {
    ex->Respond(200, "text/plain", "hello, world\n");
  };
  sunmt::HttpServer server(std::move(server_config));
  if (server.Start() != 0) {
    fprintf(stderr, "server start failed: errno %d\n", sunmt::thread_errno());
    return 1;
  }
  g_server = &server;

  printf("\nAblation A12: HTTP keep-alive load — %d clients, %d reqs/client, "
         "concurrency %d\n",
         kClients, kReqsPerClient, kConcurrency);
  if (big_phase < 10000) {
    printf("  (10k phase clamped to %d connections by the fd rlimit of %llu)\n",
           big_phase, static_cast<unsigned long long>(rl.rlim_max));
  }

  PhaseResult c1k = RunPhase(1000);
  printf("  %5d conns: %9.0f req/s   p50 %7.1f us   p99 %7.1f us   %4zu LWPs\n",
         c1k.conns, c1k.reqs_per_s, c1k.p50_us, c1k.p99_us, c1k.lwps);

  PhaseResult c10k = RunPhase(big_phase);
  printf("  %5d conns: %9.0f req/s   p50 %7.1f us   p99 %7.1f us   %4zu LWPs\n",
         c10k.conns, c10k.reqs_per_s, c10k.p50_us, c10k.p99_us, c10k.lwps);

  server.Stop();

  // The tentpole assertion: ~10k parked HTTP connections ran on O(concurrency)
  // LWPs, not O(conns).
  if (c10k.lwps >= 2 * kConcurrency) {
    fprintf(stderr, "FAIL: %d-conn phase used %zu LWPs (>= 2 x concurrency %d)\n",
            c10k.conns, c10k.lwps, kConcurrency);
    return 1;
  }

  sunmt_bench::BenchJson json{"abl_http_load"};
  json.Add("concurrency", kConcurrency);
  json.Add("c1k_conns", c1k.conns);
  json.Add("c1k_reqs_per_s", c1k.reqs_per_s);
  json.Add("c1k_p50_us", c1k.p50_us);
  json.Add("c1k_p99_us", c1k.p99_us);
  json.Add("c1k_lwps", static_cast<double>(c1k.lwps));
  json.Add("c10k_conns", c10k.conns);
  json.Add("c10k_reqs_per_s", c10k.reqs_per_s);
  json.Add("c10k_p50_us", c10k.p50_us);
  json.Add("c10k_p99_us", c10k.p99_us);
  json.Add("c10k_lwps", static_cast<double>(c10k.lwps));
  json.Emit();
  return 0;
}
