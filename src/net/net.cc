// Public netpoller API: nonblocking syscalls behind one park-on-EAGAIN retry
// loop over NetPoller::WaitReady. Every wrapper reports errors through thread_errno()
// like the src/io family, and additionally clears it to 0 on success.

#include "src/net/net.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "src/inject/inject.h"
#include "src/io/io.h"
#include "src/net/backend.h"
#include "src/net/poller.h"
#include "src/util/clock.h"

namespace sunmt {
namespace {

// Success/failure funnel shared by all wrappers.
template <typename T>
T NetResult(T result, int err) {
  thread_errno() = err;
  if (err != 0) {
    return static_cast<T>(-1);
  }
  return result;
}

bool WouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

// Whether an injected EAGAIN is allowed to stand. The poller's wakeups are
// edge-triggered: WaitReady may only be entered after a *real* EAGAIN, because
// readiness that arrived earlier has already had its edge latched and consumed.
// Faking an EAGAIN while the fd is ready would park on an edge that never
// comes — a state real execution cannot reach (a true EAGAIN means the fd was
// drained, so any later readiness fires a fresh edge). So the fault only
// stands on a genuinely not-ready fd; otherwise it decays to a no-op and the
// caller performs the real syscall.
bool InjectedEagainHolds(int fd, uint32_t events) {
  short poll_events = events == NET_READABLE ? POLLIN : POLLOUT;
  struct pollfd p = {fd, poll_events, 0};
  return poll(&p, 1, 0) == 0;
}

// The one park-and-retry loop behind every parking read, write, writev and
// accept. `attempt` makes the nonblocking syscall and returns its result, or
// -1 with errno set; EAGAIN parks until `events` (NET_READABLE or
// NET_WRITABLE) fire on `fd`, then retries. Reports through thread_errno()
// like every wrapper.
template <typename Attempt>
ssize_t ParkAndRetry(int fd, uint32_t events, int64_t timeout_ns,
                     Attempt attempt) {
  NetPoller& poller = NetPoller::Get();
  // One deadline spans every park of the call: a re-park (a concurrent
  // consumer stole the readiness, or a writev went partial) keeps the clock.
  const int64_t start_ns = timeout_ns > 0 ? MonotonicNowNs() : 0;
  for (;;) {
    // Injected not-ready: skip the syscall and take the WaitReady path, as if
    // the data arrived just after an EAGAIN — races the deadline against the
    // park/wake machinery. (Not with timeout 0: a nonblocking try must report
    // the fd's true state. Not on a ready fd: see InjectedEagainHolds.)
    if (timeout_ns == 0 || !inject::Fault(inject::kNetSyscall) ||
        !InjectedEagainHolds(fd, events)) {
      ssize_t n = attempt();
      if (n >= 0) {
        return NetResult(n, 0);
      }
      if (!WouldBlock(errno)) {
        return NetResult<ssize_t>(-1, errno);
      }
    }
    if (inject::Fault(inject::kNetWaitReady)) {
      continue;  // injected spurious readiness: retry the syscall
    }
    // Forever (< 0) and a nonblocking try (0) pass through. A consumed
    // deadline must not turn into either: 1 ns parks and times out as ETIME.
    int64_t remaining = timeout_ns;
    if (timeout_ns > 0) {
      remaining = std::max<int64_t>(timeout_ns - (MonotonicNowNs() - start_ns), 1);
    }
    int rc = poller.WaitReady(fd, events, remaining);
    if (rc == ETIME && timeout_ns == 0) {
      rc = EAGAIN;  // a nonblocking try reports like the raw syscall
    }
    if (rc != 0) {
      return NetResult<ssize_t>(-1, rc);
    }
  }
}

// write(2)/writev(2) on a peer-closed socket raise SIGPIPE, which would kill
// the whole process out from under every other connection (first hit by the
// HTTP server, where clients hang up whenever they like). MSG_NOSIGNAL turns
// that into a plain EPIPE; non-socket fds fall back to the raw syscalls.
ssize_t WriteNoSigpipe(int fd, const void* buf, size_t count) {
  ssize_t n = send(fd, buf, count, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) {
    n = write(fd, buf, count);
  }
  return n;
}

ssize_t WritevNoSigpipe(int fd, const struct iovec* iov, int iovcnt) {
  struct msghdr msg = {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) {
    n = writev(fd, iov, iovcnt);
  }
  return n;
}

}  // namespace

// ---- Lifecycle / registration ----------------------------------------------

int net_poller_start() {
  int rc = NetPoller::Get().Start();
  return NetResult(rc, rc == 0 ? 0 : errno);
}

int net_poller_stop() {
  if (!NetPoller::Exists()) {
    return 0;
  }
  int rc = NetPoller::Get().Stop();
  return NetResult(rc, rc == 0 ? 0 : errno);
}

bool net_poller_running() {
  return NetPoller::Exists() && NetPoller::Get().Running();
}

int net_register(int fd) {
  int rc = NetPoller::Get().Register(fd);
  return NetResult(rc, rc == 0 ? 0 : errno);
}

int net_unregister(int fd) {
  if (!NetPoller::Exists()) {
    return NetResult(-1, EBADF);
  }
  int rc = NetPoller::Get().Unregister(fd);
  return NetResult(rc, rc == 0 ? 0 : errno);
}

bool net_is_registered(int fd) {
  return NetPoller::Exists() && NetPoller::Get().IsRegistered(fd);
}

int net_parked_count() {
  // A stopped poller, or a fork1() child that dropped its parent's, has
  // nothing parked as far as the pool's poll checks are concerned.
  return net_poller_running() ? NetPoller::Get().ParkedCount() : 0;
}

int net_wait_ready(int fd, uint32_t events, int64_t timeout_ns) {
  if (!NetPoller::Exists()) {
    return EBADF;
  }
  return NetPoller::Get().WaitReady(fd, events, timeout_ns);
}

const char* net_backend_name() { return "epoll"; }

bool net_backend_snapshot(NetBackendStats* out) {
  if (!NetPoller::Exists()) {
    return false;
  }
  NetPoller& poller = NetPoller::Get();
  out->name = net_backend_name();
  out->registered = poller.RegisteredCount();
  out->parked = poller.ParkedCount();
  return true;
}

// ---- Parking I/O ------------------------------------------------------------

ssize_t net_read_deadline(int fd, void* buf, size_t count, int64_t timeout_ns) {
  count = inject::ShortTransfer(inject::kNetSyscall, count);
  return ParkAndRetry(fd, NET_READABLE, timeout_ns,
                      [&] { return read(fd, buf, count); });
}

ssize_t net_read(int fd, void* buf, size_t count) {
  return net_read_deadline(fd, buf, count, /*timeout_ns=*/-1);
}

ssize_t net_write_deadline(int fd, const void* buf, size_t count,
                           int64_t timeout_ns) {
  count = inject::ShortTransfer(inject::kNetSyscall, count);
  return ParkAndRetry(fd, NET_WRITABLE, timeout_ns,
                      [&] { return WriteNoSigpipe(fd, buf, count); });
}

ssize_t net_write(int fd, const void* buf, size_t count) {
  return net_write_deadline(fd, buf, count, /*timeout_ns=*/-1);
}

ssize_t net_writev_deadline(int fd, const struct iovec* iov, int iovcnt,
                            int64_t timeout_ns) {
  if (iovcnt < 0 || iovcnt > NET_IOV_MAX) {
    return NetResult<ssize_t>(-1, EINVAL);
  }
  // Local copy: continuation after a partial writev advances iov_base/iov_len
  // of the first incomplete entry, which must not scribble on the caller's
  // (possibly const, possibly reused) array.
  struct iovec local[NET_IOV_MAX];
  size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    local[i] = iov[i];
    total += iov[i].iov_len;
  }
  if (total == 0) {
    return NetResult<ssize_t>(0, 0);
  }
  int idx = 0;
  return ParkAndRetry(fd, NET_WRITABLE, timeout_ns, [&]() -> ssize_t {
    // A partial write leaves the fd possibly still writable: retry before
    // parking, until everything is sent or the socket pushes back.
    for (;;) {
      while (idx < iovcnt && local[idx].iov_len == 0) {
        ++idx;
      }
      if (idx == iovcnt) {
        return static_cast<ssize_t>(total);
      }
      // Injected short transfer: clamp this attempt to a prefix of the first
      // pending entry, exercising the mid-entry continuation below.
      size_t clamped = inject::ShortTransfer(inject::kNetSyscall, local[idx].iov_len);
      ssize_t n = clamped < local[idx].iov_len
                      ? WriteNoSigpipe(fd, local[idx].iov_base, clamped)
                      : WritevNoSigpipe(fd, &local[idx], iovcnt - idx);
      if (n <= 0) {
        if (n == 0) {
          errno = EAGAIN;  // no progress: wait for writability, never spin
        }
        return -1;
      }
      size_t adv = static_cast<size_t>(n);
      while (adv > 0 && idx < iovcnt) {
        if (adv >= local[idx].iov_len) {
          adv -= local[idx].iov_len;
          local[idx].iov_len = 0;
          ++idx;
        } else {
          local[idx].iov_base = static_cast<char*>(local[idx].iov_base) + adv;
          local[idx].iov_len -= adv;
          adv = 0;
        }
      }
    }
  });
}

ssize_t net_writev(int fd, const struct iovec* iov, int iovcnt) {
  return net_writev_deadline(fd, iov, iovcnt, /*timeout_ns=*/-1);
}

int net_accept_deadline(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
                        int64_t timeout_ns) {
  return static_cast<int>(ParkAndRetry(sockfd, NET_READABLE, timeout_ns,
                                       [&] { return accept(sockfd, addr, addrlen); }));
}

int net_accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  return net_accept_deadline(sockfd, addr, addrlen, /*timeout_ns=*/-1);
}

int net_connect_deadline(int sockfd, const struct sockaddr* addr,
                         socklen_t addrlen, int64_t timeout_ns) {
  if (connect(sockfd, addr, addrlen) == 0) {
    return NetResult(0, 0);
  }
  if (errno == EINTR || errno == EINPROGRESS) {
    // Nonblocking connect in flight: writability signals completion, and the
    // verdict is read out of SO_ERROR (connect(2), EINPROGRESS).
    int rc = NetPoller::Get().WaitReady(sockfd, NET_WRITABLE, timeout_ns);
    if (rc != 0) {
      return NetResult(-1, rc);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(sockfd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      return NetResult(-1, errno);
    }
    return NetResult(so_error == 0 ? 0 : -1, so_error);
  }
  return NetResult(-1, errno);
}

int net_connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen) {
  return net_connect_deadline(sockfd, addr, addrlen, /*timeout_ns=*/-1);
}

}  // namespace sunmt
