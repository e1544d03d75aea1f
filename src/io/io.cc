#include "src/io/io.h"

#include <errno.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include "src/inject/inject.h"
#include "src/lwp/kernel_wait.h"
#include "src/net/net.h"
#include "src/tls/thread_local.h"

namespace sunmt {
namespace {

// The per-thread errno copy: registered at static-initialization time, i.e.
// before the TLS layout freezes — the paper's `#pragma unshared errno`.
ThreadLocal<int> tls_errno;

// Saves the host errno into the thread's private copy after a failed call,
// and clears it after a successful one so a caller can never misread a
// previous failure's value as this call's.
template <typename T>
T SaveErrno(T result) {
  tls_errno.Get() = result < 0 ? errno : 0;
  return result;
}

// Untimed transfer syscalls retry EINTR: the package delivers its own signals
// to LWPs (preemption timeslice, SIGWAITING), and a caller of io_read should
// not see those internals as a spurious interruption. Timed waits (io_poll,
// io_sleep_ns) deliberately do NOT retry — a blind retry would restart the
// full timeout. The injector simulates interrupted attempts before the real
// syscall (bounded, so rate=1 cannot live-lock) to keep these loops honest.
template <typename Fn>
auto RetrySyscall(Fn fn) -> decltype(fn()) {
  int injected = 0;
  for (;;) {
    if (injected < 3 && inject::Fault(inject::kIoSyscall)) {
      ++injected;  // simulated EINTR: skip the syscall and come around again
      continue;
    }
    auto r = fn();
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return r;
  }
}

}  // namespace

int& thread_errno() { return tls_errno.Get(); }

// On a registered fd (io_read, io_write, io_accept) the net_* call parks the
// thread on readiness instead of blocking the LWP, and sets thread_errno.
ssize_t io_read(int fd, void* buf, size_t count) {
  if (net_is_registered(fd)) {
    return net_read(fd, buf, count);
  }
  count = inject::ShortTransfer(inject::kIoSyscall, count);
  KernelWaitScope wait(/*indefinite=*/true);
  return SaveErrno(RetrySyscall([&] { return read(fd, buf, count); }));
}

ssize_t io_write(int fd, const void* buf, size_t count) {
  if (net_is_registered(fd)) {
    return net_write(fd, buf, count);
  }
  count = inject::ShortTransfer(inject::kIoSyscall, count);
  KernelWaitScope wait(/*indefinite=*/true);
  return SaveErrno(RetrySyscall([&] { return write(fd, buf, count); }));
}

ssize_t io_pread(int fd, void* buf, size_t count, off_t offset) {
  count = inject::ShortTransfer(inject::kIoSyscall, count);
  KernelWaitScope wait(/*indefinite=*/false);
  return SaveErrno(RetrySyscall([&] { return pread(fd, buf, count, offset); }));
}

ssize_t io_pwrite(int fd, const void* buf, size_t count, off_t offset) {
  count = inject::ShortTransfer(inject::kIoSyscall, count);
  KernelWaitScope wait(/*indefinite=*/false);
  return SaveErrno(RetrySyscall([&] { return pwrite(fd, buf, count, offset); }));
}

int io_poll(struct pollfd* fds, unsigned long nfds, int timeout_ms) {
  KernelWaitScope wait(/*indefinite=*/true);
  return SaveErrno(poll(fds, nfds, timeout_ms));
}

int io_accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen) {
  if (net_is_registered(sockfd)) {
    return net_accept(sockfd, addr, addrlen);
  }
  KernelWaitScope wait(/*indefinite=*/true);
  return SaveErrno(RetrySyscall([&] { return accept(sockfd, addr, addrlen); }));
}

int io_accept(int sockfd) { return io_accept(sockfd, nullptr, nullptr); }

void io_sleep_ns(int64_t ns) {
  KernelWaitScope wait(/*indefinite=*/true);
  struct timespec req = {static_cast<time_t>(ns / 1000000000),
                         static_cast<long>(ns % 1000000000)};
  nanosleep(&req, nullptr);
}

}  // namespace sunmt
