#include "src/http/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "src/io/io.h"
#include "src/net/net.h"
#include "src/timer/timer.h"
#include "src/util/clock.h"
#include "src/util/object_cache.h"

namespace sunmt {
namespace {

// One ConnArg per accepted connection: at 10k+ conns/s this is a hot path, so
// the blocks come from a per-LWP magazine. The alias is declared inside the
// member functions (ConnArg is private to HttpServer).
struct ConnArgCacheTag {
  static constexpr const char* kName = "http.conn_arg";
};

}  // namespace

// ---------------------------------------------------------------- exchange --

void HttpExchange::Respond(int status, std::string_view content_type,
                           std::string_view body) {
  HttpResponseHead head;
  head.status = status;
  head.content_type = content_type;
  RespondWithHead(head, body);
}

void HttpExchange::RespondWithHead(const HttpResponseHead& head,
                                   std::string_view body) {
  if (responded_) {
    return;
  }
  responded_ = true;
  status_ = head.status;
  response_bytes_ = body.size();
  if (http_send_response(fd_, head, body, keep_alive_, timeout_ns_) != 0) {
    write_failed_ = true;
    return;
  }
  if (capture_ && head.status == 200) {
    captured_.status = head.status;
    captured_.content_type = std::string(head.content_type);
    captured_.extra_headers = head.extra_headers;
    captured_.body = std::string(body);
  }
}

HttpChunkedWriter* HttpExchange::BeginChunked(int status,
                                              std::string_view content_type) {
  if (responded_) {
    return nullptr;
  }
  responded_ = true;
  chunked_active_ = true;
  capture_ = false;  // streamed responses are not cache-filled
  status_ = status;
  chunked_ = HttpChunkedWriter(fd_, timeout_ns_);
  HttpResponseHead head;
  head.status = status;
  head.content_type = content_type;
  if (!chunked_.WriteHead(head, keep_alive_)) {
    write_failed_ = true;
  }
  return &chunked_;
}

// ------------------------------------------------------------------ server --

int HttpServer::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    thread_errno() = EALREADY;
    return -1;
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    thread_errno() = errno;
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (config_.reuseport) {
    setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(config_.bind_addr);
  addr.sin_port = htons(config_.port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, config_.backlog) != 0) {
    thread_errno() = errno;
    close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    thread_errno() = errno;
    close(fd);
    return -1;
  }
  port_ = ntohs(addr.sin_port);
  if (net_register(fd) != 0) {
    close(fd);
    return -1;
  }
  listen_fd_ = fd;
  acceptor_ = thread_create(nullptr, 0, &AcceptorMain, this, THREAD_WAIT);
  if (acceptor_ == 0) {
    net_unregister(fd);
    close(fd);
    listen_fd_ = -1;
    thread_errno() = EAGAIN;
    return -1;
  }
  return 0;
}

void HttpServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Wake the acceptor: unregister (kicks a parked net_accept) and shut the
  // listener down so the retry sees a hard error. The fd itself is closed
  // only after the acceptor has exited, so its number cannot be reused under
  // the accept loop.
  if (listen_fd_ >= 0) {
    net_unregister(listen_fd_);
    shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_ != 0) {
    thread_wait(acceptor_);
    acceptor_ = 0;
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Wake every parked connection thread. Any fd still in the set has not yet
  // been closed by its owner (connections erase themselves under this lock
  // before closing), so these are live descriptors.
  mutex_enter(&conns_lock_);
  for (int fd : conn_fds_) {
    net_unregister(fd);
    shutdown(fd, SHUT_RDWR);
  }
  mutex_exit(&conns_lock_);
  // Connection threads observe stopping_ / the shutdown and drain. The wait
  // is unbounded: handlers are trusted code, and returning while connection
  // threads still run would let ~HttpServer destroy conns_lock_ / config_
  // under them (use-after-free). Re-sweep the set periodically so a
  // connection that slipped in around the sweep above still gets woken
  // instead of parking out its full idle timeout.
  for (int waited_ms = 0; active_conns_.load(std::memory_order_acquire) > 0;
       waited_ms += 2) {
    thread_sleep_ms(2);
    if (waited_ms % 100 == 0) {
      mutex_enter(&conns_lock_);
      for (int fd : conn_fds_) {
        net_unregister(fd);
        shutdown(fd, SHUT_RDWR);
      }
      mutex_exit(&conns_lock_);
    }
  }
}

HttpServerStats HttpServer::SnapshotStats() const {
  HttpServerStats s;
  s.accepted = stat_accepted_.load(std::memory_order_relaxed);
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.responses = stat_responses_.load(std::memory_order_relaxed);
  s.parse_errors = stat_parse_errors_.load(std::memory_order_relaxed);
  s.idle_timeouts = stat_idle_timeouts_.load(std::memory_order_relaxed);
  s.request_timeouts = stat_request_timeouts_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::AcceptorMain(void* arg) {
  static_cast<HttpServer*>(arg)->AcceptLoop();
}

void HttpServer::AcceptLoop() {
  using ConnArgAlloc = CachedAlloc<ConnArg, ConnArgCacheTag>;
  for (;;) {
    int conn = net_accept(listen_fd_);
    if (stopping_.load(std::memory_order_acquire)) {
      if (conn >= 0) {
        close(conn);
      }
      return;
    }
    if (conn < 0) {
      int err = thread_errno();
      if (err == ECONNABORTED || err == EINTR) {
        continue;
      }
      if (err == EMFILE || err == ENFILE) {
        // Out of descriptors: back off and let connections drain.
        thread_sleep_ms(10);
        continue;
      }
      return;  // ECANCELED (poller stopped), EBADF (Stop), or fatal
    }
    int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (net_register(conn) != 0) {
      close(conn);
      continue;
    }
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto* ca = ConnArgAlloc::New(
        this, conn, next_conn_id_.fetch_add(1, std::memory_order_relaxed));
    mutex_enter(&conns_lock_);
    conn_fds_.insert(conn);
    // Re-check under the lock: if Stop()'s wake sweep already ran it missed
    // this fd, so deliver the wake here (a second shutdown on a live fd is
    // harmless, and the fd stays open until its owner closes it).
    if (stopping_.load(std::memory_order_acquire)) {
      net_unregister(conn);
      shutdown(conn, SHUT_RDWR);
    }
    mutex_exit(&conns_lock_);
    active_conns_.fetch_add(1, std::memory_order_acq_rel);
    // Flags 0: connection threads are never thread_wait()ed — Stop() drains
    // them through the active_conns_ counter instead.
    thread_id_t tid = thread_create(nullptr, config_.conn_stack_bytes,
                                    &ConnMain, ca, 0);
    if (tid == 0) {
      mutex_enter(&conns_lock_);
      conn_fds_.erase(conn);
      mutex_exit(&conns_lock_);
      active_conns_.fetch_sub(1, std::memory_order_acq_rel);
      net_unregister(conn);
      close(conn);
      ConnArgAlloc::Delete(ca);
    }
  }
}

void HttpServer::ConnMain(void* arg) {
  using ConnArgAlloc = CachedAlloc<ConnArg, ConnArgCacheTag>;
  ConnArg ca = *static_cast<ConnArg*>(arg);
  ConnArgAlloc::Delete(static_cast<ConnArg*>(arg));
  HttpServer* srv = ca.server;
  srv->ServeConnection(ca.fd, ca.conn_id);
  // Erase-before-close, under the lock Stop() iterates with: once the fd
  // leaves the set, Stop() will never touch it, so closing (and kernel fd
  // reuse) is safe.
  mutex_enter(&srv->conns_lock_);
  srv->conn_fds_.erase(ca.fd);
  mutex_exit(&srv->conns_lock_);
  net_unregister(ca.fd);
  close(ca.fd);
  srv->active_conns_.fetch_sub(1, std::memory_order_acq_rel);
}

void HttpServer::ServeConnection(int fd, uint64_t conn_id) {
  HttpParser parser(HttpParser::kRequest);
  char buf[8192];
  HttpMessage req;
  for (;;) {
    HttpParser::Result r = parser.Next(&req);
    if (r == HttpParser::kNeedMore) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      // Between requests a connection may sit for the keep-alive idle
      // timeout; once bytes of a request have arrived, the shorter I/O
      // timeout applies and expiry is the client's fault (408).
      bool mid = parser.mid_message();
      int64_t timeout =
          mid ? config_.io_timeout_ns : config_.idle_timeout_ns;
      ssize_t n = net_read_deadline(fd, buf, sizeof(buf), timeout);
      if (n > 0) {
        parser.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        return;  // clean EOF
      }
      if (thread_errno() == ETIME) {
        if (mid) {
          stat_request_timeouts_.fetch_add(1, std::memory_order_relaxed);
          http_send_error(fd, 408, /*keep_alive=*/false, config_.io_timeout_ns);
        } else {
          stat_idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    if (r == HttpParser::kError) {
      stat_parse_errors_.fetch_add(1, std::memory_order_relaxed);
      http_send_error(fd, parser.error_status(), /*keep_alive=*/false,
                      config_.io_timeout_ns);
      return;
    }
    stat_requests_.fetch_add(1, std::memory_order_relaxed);
    bool keep_alive =
        req.keep_alive && !stopping_.load(std::memory_order_acquire);
    if (!ServeRequest(fd, conn_id, req, &keep_alive)) {
      return;
    }
    if (!keep_alive) {
      return;
    }
  }
}

bool HttpServer::ServeRequest(int fd, uint64_t conn_id, const HttpMessage& req,
                              bool* keep_alive) {
  int64_t start_ns = MonotonicNowNs();
  // GET hot path: serve straight from the cache, handler never runs.
  if (config_.cache != nullptr && req.method == "GET") {
    std::shared_ptr<const HttpCache::Entry> entry =
        config_.cache->Lookup(req.target);
    if (entry != nullptr) {
      HttpResponseHead head;
      head.status = entry->status;
      head.content_type = entry->content_type;
      head.extra_headers = entry->extra_headers;
      if (http_send_response(fd, head, entry->body, *keep_alive,
                             config_.io_timeout_ns) != 0) {
        return false;
      }
      stat_responses_.fetch_add(1, std::memory_order_relaxed);
      LogRequest(conn_id, req, entry->status, entry->body.size(), start_ns);
      return true;
    }
  }
  bool fillable = config_.cache != nullptr && req.method == "GET";
  HttpExchange ex(fd, conn_id, config_.io_timeout_ns, *keep_alive, fillable);
  if (config_.handler) {
    config_.handler(req, &ex);
  }
  if (ex.chunked_active_) {
    if (!ex.chunked_.Finish()) {
      ex.write_failed_ = true;
    }
    ex.response_bytes_ = ex.chunked_.body_bytes();
  }
  if (!ex.responded_) {
    ex.status_ = 404;
    ex.response_bytes_ = 0;
    if (http_send_error(fd, 404, *keep_alive, config_.io_timeout_ns) != 0) {
      ex.write_failed_ = true;
    }
  }
  if (ex.write_failed_) {
    return false;
  }
  if (fillable && ex.capture_ && ex.status_ == 200) {
    config_.cache->Insert(req.target, std::move(ex.captured_));
  }
  stat_responses_.fetch_add(1, std::memory_order_relaxed);
  LogRequest(conn_id, req, ex.status_, ex.response_bytes_, start_ns);
  *keep_alive = ex.keep_alive_;
  return true;
}

void HttpServer::LogRequest(uint64_t conn_id, const HttpMessage& req,
                            int status, size_t bytes, int64_t start_ns) {
  if (config_.access_log == nullptr) {
    return;
  }
  int64_t duration_us = (MonotonicNowNs() - start_ns) / 1000;
  config_.access_log->Log(conn_id, req.method, req.target, status, bytes,
                          duration_us);
}

}  // namespace sunmt
