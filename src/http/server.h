// HTTP/1.1 server on the netpoller: the paper's thesis as a traffic workload.
//
// One unbound thread per connection, written in blocking style — read a
// request, serve it, loop — while the netpoller parks those threads on fd
// readiness so 10k keep-alive connections cost ~#LWPs, not ~#connections
// (bench/abl_http_load asserts exactly that). The moving parts:
//
//   * acceptor thread: net_accept loop, registers each connection and spawns
//     its handler thread (magazine-cached default stacks make this cheap);
//   * connection threads: incremental HttpParser + net_read_deadline with two
//     timeouts — the keep-alive idle timeout between requests, the shorter
//     I/O timeout mid-request (a stalled half-request gets 408, an idle
//     keep-alive connection is just closed);
//   * pipelining: the parser yields buffered follow-on requests without
//     touching the socket, responses go out in arrival order;
//   * optional sharded HttpCache consulted for GET before the handler runs
//     (hits are served straight from the shared entry via net_writev) and
//     filled from 200-status handler responses;
//   * optional HttpAccessLog: the connection thread writes one line after
//     each response.
//
// The handler runs on the connection's thread and responds through
// HttpExchange: Respond() for Content-Length bodies, BeginChunked() for
// streamed ones. A handler that does neither produces 404.

#ifndef SUNMT_SRC_HTTP_SERVER_H_
#define SUNMT_SRC_HTTP_SERVER_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>

#include "src/core/thread.h"
#include "src/http/access_log.h"
#include "src/http/cache.h"
#include "src/http/parser.h"
#include "src/http/response.h"
#include "src/sync/sync.h"

namespace sunmt {

// The handler's response surface for one request.
class HttpExchange {
 public:
  // Sends a complete response with Content-Length framing (header + body in
  // one net_writev). One response per exchange.
  void Respond(int status, std::string_view content_type, std::string_view body);
  void RespondWithHead(const HttpResponseHead& head, std::string_view body);

  // Streams the response with chunked framing: sends the head immediately and
  // returns the writer. Finish() is called by the server if the handler does
  // not. Chunked responses are never cache-filled.
  HttpChunkedWriter* BeginChunked(int status, std::string_view content_type);

  // Ask the server to close the connection after this response.
  void set_close() { keep_alive_ = false; }

  bool responded() const { return responded_; }
  uint64_t conn_id() const { return conn_id_; }

 private:
  friend class HttpServer;
  HttpExchange(int fd, uint64_t conn_id, int64_t timeout_ns, bool keep_alive,
               bool capture_for_cache)
      : fd_(fd),
        conn_id_(conn_id),
        timeout_ns_(timeout_ns),
        keep_alive_(keep_alive),
        capture_(capture_for_cache) {}

  int fd_;
  uint64_t conn_id_;
  int64_t timeout_ns_;
  bool keep_alive_;
  bool capture_;        // cache-fillable request: keep a copy of the response
  bool responded_ = false;
  bool write_failed_ = false;
  int status_ = 0;
  size_t response_bytes_ = 0;  // body bytes, for the access log
  HttpCache::Entry captured_;  // valid when capture_ && status_ == 200
  HttpChunkedWriter chunked_{-1, 0};
  bool chunked_active_ = false;
};

using HttpHandler = std::function<void(const HttpMessage&, HttpExchange*)>;

struct HttpServerConfig {
  uint16_t port = 0;                  // 0 = ephemeral; see HttpServer::port()
  uint32_t bind_addr = INADDR_LOOPBACK;  // host byte order
  int backlog = 1024;
  bool reuseport = false;             // pre-fork: siblings bind the same port
  int64_t idle_timeout_ns = 30ll * 1000 * 1000 * 1000;  // between requests
  int64_t io_timeout_ns = 10ll * 1000 * 1000 * 1000;    // mid-request / writes
  size_t conn_stack_bytes = 0;        // 0 = package default (magazine-cached)
  HttpCache* cache = nullptr;         // optional, not owned; 200 GETs fill it
  HttpAccessLog* access_log = nullptr;  // optional, not owned
  HttpHandler handler;                // required
};

struct HttpServerStats {
  uint64_t accepted = 0;
  uint64_t requests = 0;         // complete requests parsed
  uint64_t responses = 0;        // responses fully written
  uint64_t parse_errors = 0;     // 4xx/5xx sent for unparseable streams
  uint64_t idle_timeouts = 0;    // keep-alive connections reaped
  uint64_t request_timeouts = 0; // 408s for stalled half-requests
};

class HttpServer {
 public:
  explicit HttpServer(HttpServerConfig config) : config_(std::move(config)) {
    mutex_init(&conns_lock_, 0, nullptr);
    mutex_set_name(&conns_lock_, "http.server.conns");
  }
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, registers with the poller, starts the acceptor thread.
  // Returns 0, or -1 with thread_errno() set.
  int Start();

  // Stops accepting, wakes every parked connection, waits for the handler
  // threads to drain. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  int listen_fd() const { return listen_fd_; }
  int active_connections() const {
    return active_conns_.load(std::memory_order_acquire);
  }
  HttpServerStats SnapshotStats() const;

 private:
  struct ConnArg {
    HttpServer* server;
    int fd;
    uint64_t conn_id;
  };

  static void AcceptorMain(void* arg);
  static void ConnMain(void* arg);
  void AcceptLoop();
  void ServeConnection(int fd, uint64_t conn_id);
  // Serves one parsed request; false means the connection must close now
  // (write failure). *keep_alive is the server's decision for the response.
  bool ServeRequest(int fd, uint64_t conn_id, const HttpMessage& req,
                    bool* keep_alive);
  void LogRequest(uint64_t conn_id, const HttpMessage& req, int status,
                  size_t bytes, int64_t start_ns);

  HttpServerConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  thread_id_t acceptor_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_conns_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  // Open connection fds; a connection erases itself *before* closing, and
  // Stop() unregisters the set under this lock, so a parked fd is always
  // still open when Stop() touches it (no fd-reuse race).
  mutable mutex_t conns_lock_;
  std::unordered_set<int> conn_fds_;

  std::atomic<uint64_t> stat_accepted_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_responses_{0};
  std::atomic<uint64_t> stat_parse_errors_{0};
  std::atomic<uint64_t> stat_idle_timeouts_{0};
  std::atomic<uint64_t> stat_request_timeouts_{0};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_HTTP_SERVER_H_
