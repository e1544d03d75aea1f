// Netpoller: event-driven socket/pipe I/O that parks threads, not LWPs.
//
// The kernel-call rule ("the thread needing the system service remains bound to
// the LWP executing it until the system call is completed") makes every blocked
// io_read pin an LWP in the kernel; a server with N mostly-idle connections
// then needs ~N LWPs, with SIGWAITING growing the pool one watchdog period at a
// time. This module is the M:N architecture's answer: file descriptors are made
// nonblocking, a single epoll(7) instance watches all of them, and a thread
// that hits EAGAIN parks in the user-level scheduler until the poller reports
// readiness, then retries the syscall itself. The LWP pool stays at the
// configured concurrency no matter how many connections are idle.
//
// Who polls: the LWP pool itself, with no thread of its own. While threads
// are parked on fds, one idle pool LWP (the poll owner) blocks in epoll_wait
// and runs the threads it wakes itself, from its own next box. A pool LWP that
// runs out of local work polls once with timeout 0 before stealing, work
// queued while no futex-parked LWP is left kicks the owner out of epoll_wait,
// a bound thread that parks with nobody polling hands the poll to an idle
// pool LWP, and the SIGWAITING watchdog polls every 500 us while nobody owns
// it. The owner's wait is idle time, not an indefinite kernel wait, so it
// never triggers SIGWAITING growth. See docs/internals.md §7.
//
// Registered fds are also honored by the src/io wrappers (io_read/io_write/
// io_accept route to the parking path), so blocking-style code gets the
// economics without changing call sites. Unregistered fds keep the old
// LWP-blocking behavior.
//
// Errors land in thread_errno() (the paper's per-thread errno), including
// ETIME for expired deadlines and ECANCELED when the poller shuts down under a
// parked thread.

#ifndef SUNMT_SRC_NET_NET_H_
#define SUNMT_SRC_NET_NET_H_

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cstdint>

namespace sunmt {

// Creates the poller if needed and resumes readiness delivery after
// net_poller_stop(). Starts no thread and adds no LWP: the pool does the
// polling. Optional (net_register creates the poller too); idempotent;
// returns 0. Safe to call before or after net_register.
int net_poller_start();

// Stops the poller and wakes every parked thread with ECANCELED. In-flight
// net_* calls return -1; fds stay registered and nonblocking, and a later
// net_poller_start() resumes service. Returns 0.
int net_poller_stop();

// True if the poller exists and readiness events are being delivered (it has
// not been stopped).
bool net_poller_running();

// Registers `fd` with the poller: makes it nonblocking (O_NONBLOCK is a
// property of the open file description) and adds it to the epoll set.
// Regular files are not pollable — epoll refuses them (EPERM). Returns 0, or
// -1 with thread_errno set.
int net_register(int fd);

// Removes `fd` from the poller and wakes its parked waiters: their calls
// return -1 with thread_errno() == ECANCELED. Call before close(2); the fd
// remains nonblocking. Returns 0, or -1 if the fd was not registered.
int net_unregister(int fd);

// True if `fd` is currently registered.
bool net_is_registered(int fd);

// Number of threads currently parked on fd readiness; 0 while the poller is
// stopped or was never built. The LWP pool polls only while it is > 0.
int net_parked_count();

// ---- Parking I/O on registered fds -----------------------------------------
// Each call retries the nonblocking syscall and parks the calling thread on
// EAGAIN until the poller reports readiness. Results and errno semantics match
// the plain syscalls; deadline variants return -1 with thread_errno() == ETIME
// if `timeout_ns` elapses first (timeout_ns < 0 waits forever; 0 is a pure
// nonblocking try).

ssize_t net_read(int fd, void* buf, size_t count);
ssize_t net_write(int fd, const void* buf, size_t count);
ssize_t net_read_deadline(int fd, void* buf, size_t count, int64_t timeout_ns);
ssize_t net_write_deadline(int fd, const void* buf, size_t count, int64_t timeout_ns);

// Scatter-gather write with partial-write continuation: sends the ENTIRE iov
// list (at most NET_IOV_MAX entries), parking on EAGAIN and resuming a partial
// writev(2) mid-entry, so protocol code can send header+body from separate
// buffers without an intermediate copy. Unlike net_write (one successful
// syscall), success means every byte was written; returns the total, or -1
// with thread_errno set (ETIME on the deadline variant — bytes already
// accepted by the kernel before the failure are consumed). A timeout of 0 is
// a nonblocking try and fails with EAGAIN if the full list does not fit.
inline constexpr int NET_IOV_MAX = 64;
ssize_t net_writev(int fd, const struct iovec* iov, int iovcnt);
ssize_t net_writev_deadline(int fd, const struct iovec* iov, int iovcnt,
                            int64_t timeout_ns);

// accept(2) on a registered listening socket. The accepted fd is returned
// blocking-mode untouched and unregistered; register it to serve it through
// the poller. addr/addrlen may be null (the peer address is discarded).
int net_accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen);
inline int net_accept(int sockfd) { return net_accept(sockfd, nullptr, nullptr); }
int net_accept_deadline(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
                        int64_t timeout_ns);

// connect(2) on a registered socket: initiates the nonblocking connect, parks
// until the socket is writable, and reports the final SO_ERROR. Returns 0, or
// -1 with thread_errno set (ETIME on the deadline variant).
int net_connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen);
int net_connect_deadline(int sockfd, const struct sockaddr* addr, socklen_t addrlen,
                         int64_t timeout_ns);

// Parks the calling thread until `fd` is readable (events=NET_READABLE) or
// writable (NET_WRITABLE). Building block for protocols the wrappers above do
// not cover. Returns 0 on readiness, or ETIME / ECANCELED / EBADF.
enum : uint32_t {
  NET_READABLE = 1u << 0,
  NET_WRITABLE = 1u << 1,
};
int net_wait_ready(int fd, uint32_t events, int64_t timeout_ns);

}  // namespace sunmt

#endif  // SUNMT_SRC_NET_NET_H_
