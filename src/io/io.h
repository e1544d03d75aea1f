// Blocking "system call" wrappers.
//
// "When a thread needs to access a system service by performing a kernel call ...
// the thread needing the system service remains bound to the LWP executing it
// until the system call is completed." These wrappers bracket real host system
// calls with the LWP kernel-wait accounting, so that:
//   * the thread stays bound to its LWP for the call's duration (it simply keeps
//     running on it — other LWPs run other threads meanwhile), and
//   * indefinite waits make the LWP eligible for SIGWAITING, letting the library
//     grow the pool instead of deadlocking when every LWP is parked in poll()
//     (the paper's motivating example for SIGWAITING).
//
// Wrappers that wait for an external event of unknown duration (pipes, sockets,
// poll, sleep) are classified *indefinite*; bounded file-system I/O is not —
// matching the paper's distinction ("SIGWAITING is sent for 'indefinite' waits,
// [while] supposedly short term blocking for things like page faults or file
// system I/O" is not signaled).

#ifndef SUNMT_SRC_IO_IO_H_
#define SUNMT_SRC_IO_IO_H_

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace sunmt {

// Stream reads/writes (pipes, sockets, ttys): indefinite waits. On an fd
// registered with the netpoller (src/net), io_read, io_write and io_accept
// call net_read, net_write and net_accept instead: the thread parks on
// readiness and its LWP runs other threads, so blocking-style call sites get
// event-driven economics without being rewritten.
ssize_t io_read(int fd, void* buf, size_t count);
ssize_t io_write(int fd, const void* buf, size_t count);

// Positional file I/O: bounded waits (no SIGWAITING).
ssize_t io_pread(int fd, void* buf, size_t count, off_t offset);
ssize_t io_pwrite(int fd, const void* buf, size_t count, off_t offset);

// poll(2): the canonical indefinite wait.
int io_poll(struct pollfd* fds, unsigned long nfds, int timeout_ms);

// accept(2) on a listening socket: indefinite. The three-argument form fills
// in the peer address (addr/addrlen may be null to discard it, which is all
// the one-argument form does) — without it every caller that wants the peer
// pays a second getpeername(2) call.
int io_accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen);
int io_accept(int sockfd);

// Sleeping: indefinite by definition.
void io_sleep_ns(int64_t ns);
inline void io_sleep_us(int64_t us) { io_sleep_ns(us * 1000); }
inline void io_sleep_ms(int64_t ms) { io_sleep_ns(ms * 1000 * 1000); }

// The paper's canonical thread-local-storage example, made real: "the C library
// variable errno is a good example of a variable that should be placed in
// thread-local storage. This allows each thread to reference errno directly and
// it allows threads to interleave execution without fear of corrupting errno in
// other threads." Every io_* wrapper stores the failing call's errno here; the
// reference is to the calling thread's private copy.
int& thread_errno();

}  // namespace sunmt

#endif  // SUNMT_SRC_IO_IO_H_
