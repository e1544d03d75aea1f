// Ablation A11 — netpoller echo server economics.
//
// The tentpole claim: N mostly-idle connections must not cost ~N LWPs. Phase 1
// serves kConns echo connections through the netpoller (threads park on
// readiness; the pool stays at the configured concurrency) and asserts the
// total LWP count stays below 2x thread_setconcurrency. Phase 2 serves the
// same workload on the old blocking path, where every parked connection pins
// an LWP in the kernel: its echo threads are bound, one LWP each, which is
// SIGWAITING's end state without growing the pool one 500us watchdog period
// at a time (that would take minutes, and the pool stops at
// Runtime::max_pool_size()). Both phases report req/s and p50/p99 request
// latency under the same 8-client serial request/response load.

#include <string.h>
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
#include "src/io/io.h"
#include "src/lwp/lwp.h"
#include "src/net/net.h"
#include "src/util/clock.h"

namespace {

constexpr int kConns = 1000;
constexpr int kConcurrency = 8;
constexpr int kClients = 8;
constexpr int kReqsPerClient = 200;
constexpr size_t kEchoStack = 32 * 1024;  // 1000 default stacks would be 256MB
constexpr int kConnsPerClient = kConns / kClients;

int g_server_fd[kConns];
int g_client_fd[kConns];
std::atomic<int> g_echo_exited{0};
bool g_use_poller = false;

// One echo thread per connection: read a byte, write it back, until EOF.
void EchoMain(void* arg) {
  int fd = g_server_fd[reinterpret_cast<intptr_t>(arg)];
  char ch;
  for (;;) {
    ssize_t n = g_use_poller ? sunmt::net_read(fd, &ch, 1) : sunmt::io_read(fd, &ch, 1);
    if (n != 1) {
      break;  // EOF (client closed) or cancel
    }
    ssize_t w = g_use_poller ? sunmt::net_write(fd, &ch, 1) : sunmt::io_write(fd, &ch, 1);
    if (w != 1) {
      break;
    }
  }
  g_echo_exited.fetch_add(1);
}

struct ClientArgs {
  int id;
  std::vector<double>* latencies_us;  // preallocated, kReqsPerClient entries
};

// Serial request/response over this client's share of the connections,
// round-robin, so every connection sees traffic but most sit idle.
void ClientMain(void* arg) {
  auto* a = static_cast<ClientArgs*>(arg);
  int base = a->id * kConnsPerClient;
  for (int i = 0; i < kReqsPerClient; ++i) {
    int fd = g_client_fd[base + (i % kConnsPerClient)];
    char ch = static_cast<char>('a' + (i % 26));
    int64_t start = sunmt::MonotonicNowNs();
    ssize_t w = g_use_poller ? sunmt::net_write(fd, &ch, 1) : sunmt::io_write(fd, &ch, 1);
    char reply = 0;
    ssize_t r = g_use_poller ? sunmt::net_read(fd, &reply, 1) : sunmt::io_read(fd, &reply, 1);
    if (w != 1 || r != 1 || reply != ch) {
      fprintf(stderr, "echo mismatch (client %d req %d)\n", a->id, i);
      abort();
    }
    (*a->latencies_us)[i] = static_cast<double>(sunmt::MonotonicNowNs() - start) / 1e3;
  }
}

struct PhaseResult {
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

PhaseResult RunPhase(bool use_poller) {
  g_use_poller = use_poller;
  g_echo_exited.store(0);
  for (int i = 0; i < kConns; ++i) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      perror("socketpair");
      abort();
    }
    g_server_fd[i] = fds[0];
    g_client_fd[i] = fds[1];
    if (use_poller) {
      if (sunmt::net_register(fds[0]) != 0 || sunmt::net_register(fds[1]) != 0) {
        fprintf(stderr, "net_register failed\n");
        abort();
      }
    }
  }
  for (intptr_t i = 0; i < kConns; ++i) {
    sunmt::thread_create(nullptr, kEchoStack, &EchoMain,
                         reinterpret_cast<void*>(i),
                         use_poller ? 0 : sunmt::THREAD_BIND_LWP);
  }
  // Let the storm of echo threads start and park (or pin their LWPs).
  if (use_poller) {
    int64_t deadline = sunmt::MonotonicNowNs() + 30ll * 1000 * 1000 * 1000;
    while (sunmt::net_parked_count() < kConns &&
           sunmt::MonotonicNowNs() < deadline) {
      sunmt::io_sleep_ms(5);
    }
  } else {
    sunmt::io_sleep_ms(500);
  }

  std::vector<std::vector<double>> latencies(
      kClients, std::vector<double>(kReqsPerClient, 0.0));
  ClientArgs args[kClients];
  sunmt::thread_id_t clients[kClients];
  int64_t start = sunmt::MonotonicNowNs();
  for (int c = 0; c < kClients; ++c) {
    args[c] = ClientArgs{c, &latencies[c]};
    clients[c] = sunmt::thread_create(nullptr, 0, &ClientMain, &args[c],
                                      sunmt::THREAD_WAIT);
  }
  for (int c = 0; c < kClients; ++c) {
    sunmt::thread_wait(clients[c]);
  }
  double elapsed_s = static_cast<double>(sunmt::MonotonicNowNs() - start) / 1e9;
  size_t lwps = sunmt::LwpRegistry::Count();

  // Teardown: closing the client ends EOFs every echo thread.
  for (int i = 0; i < kConns; ++i) {
    if (use_poller) {
      sunmt::net_unregister(g_client_fd[i]);
    }
    close(g_client_fd[i]);
  }
  int64_t deadline = sunmt::MonotonicNowNs() + 30ll * 1000 * 1000 * 1000;
  while (g_echo_exited.load() < kConns && sunmt::MonotonicNowNs() < deadline) {
    sunmt::io_sleep_ms(5);
  }
  if (g_echo_exited.load() < kConns) {
    fprintf(stderr, "only %d/%d echo threads exited\n", g_echo_exited.load(), kConns);
    abort();
  }
  for (int i = 0; i < kConns; ++i) {
    if (use_poller) {
      sunmt::net_unregister(g_server_fd[i]);
    }
    close(g_server_fd[i]);
  }

  std::vector<double> all;
  all.reserve(static_cast<size_t>(kClients) * kReqsPerClient);
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  PhaseResult r;
  r.reqs_per_s = static_cast<double>(kClients * kReqsPerClient) / elapsed_s;
  r.p50_us = Percentile(&all, 0.50);
  r.p99_us = Percentile(&all, 0.99);
  r.lwps = lwps;
  return r;
}

}  // namespace

int main() {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = kConcurrency;
  sunmt::Runtime::Configure(config);
  sunmt::thread_setconcurrency(kConcurrency);

  printf("\nAblation A11: netpoller echo — %d connections, %d clients, %d reqs/client\n",
         kConns, kClients, kReqsPerClient);

  if (sunmt::net_poller_start() != 0) {
    fprintf(stderr, "net_poller_start failed\n");
    return 1;
  }
  PhaseResult poller = RunPhase(/*use_poller=*/true);
  printf("  poller path:   %9.0f req/s   p50 %7.1f us   p99 %7.1f us   %4zu LWPs\n",
         poller.reqs_per_s, poller.p50_us, poller.p99_us, poller.lwps);

  // The tentpole assertion: serving kConns parked connections took O(concurrency)
  // LWPs, not O(kConns).
  if (poller.lwps >= 2 * kConcurrency) {
    fprintf(stderr, "FAIL: poller phase used %zu LWPs (>= 2 x concurrency %d)\n",
            poller.lwps, kConcurrency);
    return 1;
  }

  // Blocking phase: every connection pins an LWP (its bound echo thread's),
  // and each client pins a pool LWP while it waits for its reply.
  sunmt::thread_setconcurrency(kClients);
  PhaseResult blocking = RunPhase(/*use_poller=*/false);
  printf("  blocking path: %9.0f req/s   p50 %7.1f us   p99 %7.1f us   %4zu LWPs\n",
         blocking.reqs_per_s, blocking.p50_us, blocking.p99_us, blocking.lwps);
  printf("  LWP cost ratio (blocking/poller): %.1fx\n",
         static_cast<double>(blocking.lwps) / static_cast<double>(poller.lwps));

  sunmt_bench::BenchJson json{"abl_net_echo"};
  json.Add("conns", kConns);
  json.Add("concurrency", kConcurrency);
  json.Add("poller_reqs_per_s", poller.reqs_per_s);
  json.Add("poller_p50_us", poller.p50_us);
  json.Add("poller_p99_us", poller.p99_us);
  json.Add("poller_lwps", static_cast<double>(poller.lwps));
  json.Add("blocking_reqs_per_s", blocking.reqs_per_s);
  json.Add("blocking_p50_us", blocking.p50_us);
  json.Add("blocking_p99_us", blocking.p99_us);
  json.Add("blocking_lwps", static_cast<double>(blocking.lwps));
  json.Emit();
  return 0;
}
