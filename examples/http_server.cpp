// HTTP server: the paper's many-connections workload end to end.
//
// Default mode runs one process: an HttpServer (src/http) on a loopback
// ephemeral port — sharded response cache, access log, one unbound thread
// per connection — plus in-process keep-alive clients driving it.
// The LWP pool stays at its configured size while connections come and go;
// that is the architecture's claim, and the exit code checks it.
//
//   ./http_server              # single process
//   ./http_server --prefork=3  # stretch: 3 SO_REUSEPORT sibling processes
//
// Pre-fork mode is the paper's THREAD_SYNC_SHARED story under load: the
// parent reserves a port, fork1()s N children that each bind it with
// SO_REUSEPORT and run their own server, and every child's cache updates one
// HttpCacheSharedStats block in a shared anonymous arena under an
// address-free cross-process mutex. The parent drives clients at the shared
// port (the kernel spreads connections over the siblings) and finally checks
// that the summed shared counters account for every GET sent.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <string>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/server.h"
#include "src/io/io.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/net/net.h"

namespace {

constexpr int kPoolLwps = 2;
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 50;

std::atomic<int> g_clients_ok{0};
std::atomic<long> g_responses_200{0};

void InstallHandler(sunmt::HttpServerConfig* config) {
  config->handler = [](const sunmt::HttpMessage& req, sunmt::HttpExchange* ex) {
    if (req.target == "/hello") {
      ex->Respond(200, "text/plain", "hello, world\n");
    } else if (req.target == "/") {
      ex->Respond(200, "text/html",
                  "<html><body><h1>sunmt http</h1>"
                  "<p>one thread per connection, ~#LWPs total</p>"
                  "</body></html>\n");
    } else if (req.target == "/stream") {
      sunmt::HttpChunkedWriter* w = ex->BeginChunked(200, "text/plain");
      w->WriteChunk("chunk one\n");
      w->WriteChunk("chunk two\n");
      w->WriteChunk("chunk three\n");
    }
    // anything else: the server's default 404
  };
}

// One keep-alive client connection issuing GET /hello in a loop and checking
// each response is a 200.
void ClientMain(void* arg) {
  uint16_t port = static_cast<uint16_t>(reinterpret_cast<uintptr_t>(arg));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || sunmt::net_register(fd) != 0 ||
      sunmt::net_connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
    fprintf(stderr, "client connect failed: errno %d\n", sunmt::thread_errno());
    if (fd >= 0) close(fd);
    return;
  }
  const char kRequest[] =
      "GET /hello HTTP/1.1\r\nHost: example\r\nConnection: keep-alive\r\n\r\n";
  sunmt::HttpParser parser(sunmt::HttpParser::kResponse);
  sunmt::HttpMessage resp;
  char buf[4096];
  bool ok = true;
  for (int i = 0; i < kRequestsPerClient && ok; ++i) {
    ok = sunmt::net_write(fd, kRequest, sizeof(kRequest) - 1) ==
         static_cast<ssize_t>(sizeof(kRequest) - 1);
    while (ok) {
      sunmt::HttpParser::Result r = parser.Next(&resp);
      if (r == sunmt::HttpParser::kMessage) {
        if (resp.status == 200) g_responses_200.fetch_add(1);
        ok = resp.status == 200;
        break;
      }
      if (r == sunmt::HttpParser::kError) {
        ok = false;
        break;
      }
      ssize_t n = sunmt::net_read(fd, buf, sizeof(buf));
      if (n <= 0) {
        ok = false;
        break;
      }
      parser.Feed(buf, static_cast<size_t>(n));
    }
  }
  sunmt::net_unregister(fd);
  close(fd);
  if (ok) g_clients_ok.fetch_add(1);
}

int RunClients(uint16_t port) {
  sunmt::thread_id_t clients[kClients];
  for (int c = 0; c < kClients; ++c) {
    clients[c] = sunmt::thread_create(
        nullptr, 0, &ClientMain,
        reinterpret_cast<void*>(static_cast<uintptr_t>(port)),
        sunmt::THREAD_WAIT);
  }
  for (int c = 0; c < kClients; ++c) {
    sunmt::thread_wait(clients[c]);
  }
  return g_clients_ok.load() == kClients ? 0 : 1;
}

int RunSingle() {
  sunmt::RuntimeConfig rc;
  rc.initial_pool_lwps = kPoolLwps;
  sunmt::Runtime::Configure(rc);
  if (sunmt::net_poller_start() != 0) {
    fprintf(stderr, "net_poller_start failed\n");
    return 1;
  }

  sunmt::HttpCache cache(/*shards=*/8, /*max_bytes=*/1 << 20);
  sunmt::HttpAccessLog access_log(STDOUT_FILENO);
  sunmt::HttpServerConfig config;
  config.cache = &cache;
  config.access_log = &access_log;
  InstallHandler(&config);
  sunmt::HttpServer server(std::move(config));
  if (server.Start() != 0) {
    fprintf(stderr, "server start failed: errno %d\n", sunmt::thread_errno());
    return 1;
  }
  printf("http_server: listening on 127.0.0.1:%d, pool fixed at %d LWPs\n",
         server.port(), kPoolLwps);

  int rc_clients = RunClients(server.port());
  server.Stop();
  access_log.Stop();

  sunmt::HttpServerStats stats = server.SnapshotStats();
  sunmt::HttpCache::Stats cstats = cache.SnapshotStats();
  printf("served %llu requests on %llu connections "
         "(cache: %llu hits / %llu misses; log: %llu lines)\n",
         static_cast<unsigned long long>(stats.responses),
         static_cast<unsigned long long>(stats.accepted),
         static_cast<unsigned long long>(cstats.hits),
         static_cast<unsigned long long>(cstats.misses),
         static_cast<unsigned long long>(access_log.lines_written()));
  printf("LWP pool: stayed at %d (connections parked on the netpoller)\n",
         sunmt::Runtime::Get().pool_size());

  bool ok = rc_clients == 0 &&
            stats.responses ==
                static_cast<uint64_t>(kClients) * kRequestsPerClient &&
            cstats.hits > 0 &&  // /hello is cache-filled, then hit
            sunmt::Runtime::Get().pool_size() == kPoolLwps;
  if (!ok) {
    fprintf(stderr, "FAIL: clients_ok=%d responses=%llu hits=%llu pool=%d\n",
            g_clients_ok.load(),
            static_cast<unsigned long long>(stats.responses),
            static_cast<unsigned long long>(cstats.hits),
            sunmt::Runtime::Get().pool_size());
  }
  return ok ? 0 : 1;
}

// ------------------------------------------------------------- pre-fork ----

// Child: own runtime, own poller, own HttpServer bound to the shared port
// with SO_REUSEPORT, cache statistics wired to the shared arena. Runs until
// the parent closes the control pipe.
int PreforkChild(uint16_t port, sunmt::HttpCacheSharedStats* shared,
                 int ctl_read_fd, int ready_write_fd) {
  sunmt::RuntimeConfig rc;
  rc.initial_pool_lwps = kPoolLwps;
  sunmt::Runtime::Configure(rc);
  if (sunmt::net_poller_start() != 0) {
    return 1;
  }
  sunmt::HttpCache cache(/*shards=*/8, /*max_bytes=*/1 << 20);
  cache.AttachSharedStats(shared);
  sunmt::HttpServerConfig config;
  config.port = port;
  config.reuseport = true;
  config.cache = &cache;
  InstallHandler(&config);
  sunmt::HttpServer server(std::move(config));
  if (server.Start() != 0) {
    return 1;
  }
  char ready = 'R';
  if (sunmt::io_write(ready_write_fd, &ready, 1) != 1) {
    return 1;
  }
  char byte;
  while (sunmt::io_read(ctl_read_fd, &byte, 1) > 0) {
  }
  server.Stop();
  return 0;
}

int RunPrefork(int nprocs) {
  // Reserve a port for the whole sibling group: bound (so nobody else can
  // take it) but never listening (so it receives no connections).
  int placeholder = socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  setsockopt(placeholder, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  setsockopt(placeholder, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (placeholder < 0 ||
      bind(placeholder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(placeholder, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    perror("port reservation");
    return 1;
  }
  uint16_t port = ntohs(addr.sin_port);

  sunmt::SharedArena arena = sunmt::SharedArena::CreateAnonymous(4096);
  sunmt::HttpCacheSharedStats* shared =
      sunmt::HttpCacheSharedStats::InitShared(
          arena.New<sunmt::HttpCacheSharedStats>());

  int ctl[2];   // parent closes write end => children drain and exit
  int ready[2]; // each child writes one byte once it is listening
  if (pipe(ctl) != 0 || pipe(ready) != 0) {
    perror("pipe");
    return 1;
  }

  pid_t pids[64];
  if (nprocs > 64) nprocs = 64;
  for (int i = 0; i < nprocs; ++i) {
    pid_t pid = sunmt::fork1();
    if (pid < 0) {
      perror("fork1");
      return 1;
    }
    if (pid == 0) {
      close(placeholder);
      close(ctl[1]);
      close(ready[0]);
      int code = PreforkChild(port, shared, ctl[0], ready[1]);
      _exit(code);
    }
    pids[i] = pid;
  }
  close(ctl[0]);
  close(ready[1]);

  for (int i = 0; i < nprocs; ++i) {
    char byte;
    if (read(ready[0], &byte, 1) != 1) {
      fprintf(stderr, "a pre-fork child failed to start\n");
      return 1;
    }
  }
  printf("http_server: %d pre-forked siblings on 127.0.0.1:%d\n", nprocs, port);

  // Now the parent becomes the load generator.
  sunmt::RuntimeConfig rc;
  rc.initial_pool_lwps = kPoolLwps;
  sunmt::Runtime::Configure(rc);
  if (sunmt::net_poller_start() != 0) {
    return 1;
  }
  int rc_clients = RunClients(port);

  close(ctl[1]);  // EOF on the control pipe: children stop
  bool children_ok = true;
  for (int i = 0; i < nprocs; ++i) {
    int status = 0;
    waitpid(pids[i], &status, 0);
    children_ok &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  close(placeholder);

  // Every GET went through exactly one sibling's cache, and every sibling
  // published its lookups to the one shared block.
  sunmt::mutex_enter(&shared->lock);
  unsigned long long hits = shared->hits;
  unsigned long long misses = shared->misses;
  unsigned long long inserts = shared->inserts;
  sunmt::mutex_exit(&shared->lock);
  unsigned long long expected =
      static_cast<unsigned long long>(kClients) * kRequestsPerClient;
  printf("shared cache stats across %d processes: %llu hits, %llu misses, "
         "%llu inserts (lookups=%llu, expected %llu)\n",
         nprocs, hits, misses, inserts, hits + misses, expected);

  bool ok = rc_clients == 0 && children_ok && hits + misses == expected;
  if (!ok) {
    fprintf(stderr, "FAIL: clients=%d children_ok=%d lookups=%llu/%llu\n",
            rc_clients, children_ok ? 1 : 0, hits + misses, expected);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int prefork = 0;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--prefork=", 10) == 0) {
      prefork = atoi(argv[i] + 10);
    }
  }
  return prefork > 0 ? RunPrefork(prefork) : RunSingle();
}
