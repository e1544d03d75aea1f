// Netpoller tests: park/wake on readiness, deadlines, concurrent waiters on
// one fd, io_read/io_write/io_accept routing, the pool's poll-owner protocol
// (watchdog backstop, bound-thread hand-off, SIGWAITING and shrink with an
// owner in epoll_wait), the SIGWAITING contrast (poller keeps the pool flat
// where the blocking path must grow it), and shutdown under parked threads.
//
// Test order is load-bearing (gtest runs tests in declaration order within a
// binary): the first tests run before any net_poller_start() call, the
// owner-protocol tests need the configured two-LWP pool, and the pool-growth /
// shutdown tests run last because the pool never shrinks on its own and a
// stopped poller stays stopped.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/inject/inject.h"
#include "src/introspect/introspect.h"
#include "src/io/io.h"
#include "src/lwp/lwp.h"
#include "src/net/net.h"
#include "src/signal/signal.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitUntil;

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSec = 1000 * kMs;

void MakeSocketpair(int fds[2]) {
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
}

// The pool's LWPs in pool order: a pool LWP's id grows with its place in the
// pool, so sorting by id puts the snapshot in the order shrinks retire from.
std::vector<LwpSnapshot> PoolLwps() {
  std::vector<LwpSnapshot> lwps;
  SnapshotLwps(&lwps);
  lwps.erase(std::remove_if(lwps.begin(), lwps.end(),
                            [](const LwpSnapshot& lwp) { return !lwp.pool; }),
             lwps.end());
  std::sort(lwps.begin(), lwps.end(),
            [](const LwpSnapshot& a, const LwpSnapshot& b) { return a.id < b.id; });
  return lwps;
}

// Id of the pool LWP that owns the blocking poll, or -1.
int PollOwnerId() {
  for (const LwpSnapshot& lwp : PoolLwps()) {
    if (lwp.poll_owner) {
      return lwp.id;
    }
  }
  return -1;
}

// ---- Before any net_poller_start --------------------------------------------

TEST(NetPoller, RegisterMakesNonblockingAndIsIdempotent) {
  int fds[2];
  MakeSocketpair(fds);
  EXPECT_FALSE(net_is_registered(fds[0]));
  ASSERT_EQ(net_register(fds[0]), 0);
  EXPECT_EQ(net_register(fds[0]), 0);  // idempotent
  EXPECT_TRUE(net_is_registered(fds[0]));
  EXPECT_NE(fcntl(fds[0], F_GETFL) & O_NONBLOCK, 0);
  EXPECT_EQ(net_unregister(fds[0]), 0);
  EXPECT_FALSE(net_is_registered(fds[0]));
  EXPECT_EQ(net_unregister(fds[0]), -1);  // already gone
  close(fds[0]);
  close(fds[1]);
}

TEST(NetPoller, ParkAndWakeWithoutStart) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  static std::atomic<bool> done;
  done.store(false);
  static std::atomic<int> got;
  got.store(-1);
  thread_id_t reader = Spawn([&] {
    char ch = 0;
    ssize_t n = net_read(fds[0], &ch, 1);
    got.store(n == 1 ? ch : -2);
    done.store(true);
  });
  usleep(30 * 1000);
  EXPECT_FALSE(done.load());  // parked on readiness, not finished
  char msg = 'i';
  ASSERT_EQ(write(fds[1], &msg, 1), 1);
  WaitUntil([] { return done.load(); }, 5 * kSec);
  EXPECT_TRUE(Join(reader));
  EXPECT_EQ(got.load(), 'i');
  EXPECT_EQ(net_unregister(fds[0]), 0);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetPoller, DeadlineExpiresWithEtime) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  char ch;
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(net_read_deadline(fds[0], &ch, 1, 30 * kMs), -1);
  EXPECT_EQ(thread_errno(), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 25 * kMs);
  EXPECT_EQ(net_unregister(fds[0]), 0);
  close(fds[0]);
  close(fds[1]);
}

// ---- After net_poller_start --------------------------------------------------

TEST(NetPoller, StartIsIdempotentAndKeepsPoolFree) {
  size_t lwps_before = LwpRegistry::Count();
  int pool_before = Runtime::Get().pool_size();
  ASSERT_EQ(net_poller_start(), 0);
  EXPECT_EQ(net_poller_start(), 0);
  EXPECT_TRUE(net_poller_running());
  // The pool polls: starting the poller adds no LWP and leaves the pool as is.
  // (A new LWP would register itself from its own start routine; give one
  // the time to show up.)
  usleep(20 * 1000);
  EXPECT_EQ(LwpRegistry::Count(), lwps_before);
  EXPECT_EQ(Runtime::Get().pool_size(), pool_before);
  EXPECT_EQ(Runtime::Get().pool_size(), 2);
}

TEST(NetPoller, ParkAndWake) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  ASSERT_EQ(net_register(fds[1]), 0);
  uint64_t parks_before = GlobalSchedStats().net_parks.Load();
  static std::atomic<bool> done;
  done.store(false);
  thread_id_t echo = Spawn([&] {
    char buf[16];
    ssize_t n = net_read(fds[1], buf, sizeof(buf));
    if (n > 0) {
      net_write(fds[1], buf, static_cast<size_t>(n));
    }
    done.store(true);
  });
  usleep(20 * 1000);
  ASSERT_EQ(write(fds[0], "ping", 4), 4);
  char reply[16] = {};
  EXPECT_EQ(net_read(fds[0], reply, sizeof(reply)), 4);
  EXPECT_EQ(memcmp(reply, "ping", 4), 0);
  EXPECT_EQ(thread_errno(), 0);
  WaitUntil([] { return done.load(); }, 5 * kSec);
  EXPECT_TRUE(Join(echo));
  EXPECT_GT(GlobalSchedStats().net_parks.Load(), parks_before);
  EXPECT_EQ(net_parked_count(), 0);
  net_unregister(fds[0]);
  net_unregister(fds[1]);
  close(fds[0]);
  close(fds[1]);
}

// Every parking call goes through one retry loop, so each gets the same
// checks on an fd that is not ready in its direction: a timeout-0 try reports
// EAGAIN like the raw syscall and parks nothing, and a deadline expires with
// ETIME.
TEST(NetPoller, DeadlineAndNonblockingTry) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  int sndbuf = 4 * 1024;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  char fill[1024] = {};
  while (write(fds[0], fill, sizeof(fill)) > 0) {
  }
  ASSERT_EQ(errno, EAGAIN);  // fds[0] is full for writes, empty for reads
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 8), 0);
  ASSERT_EQ(net_register(listener), 0);  // nothing pending

  char ch;
  char out = 'w';
  struct iovec iov[1] = {{&out, 1}};
  struct Call {
    const char* name;
    std::function<ssize_t(int64_t)> run;
  };
  const Call calls[] = {
      {"read", [&](int64_t t) { return net_read_deadline(fds[0], &ch, 1, t); }},
      {"write", [&](int64_t t) { return net_write_deadline(fds[0], &out, 1, t); }},
      {"writev", [&](int64_t t) { return net_writev_deadline(fds[0], iov, 1, t); }},
      {"accept",
       [&](int64_t t) -> ssize_t {
         return net_accept_deadline(listener, nullptr, nullptr, t);
       }},
  };
  uint64_t parks_before = GlobalSchedStats().net_parks.Load();
  for (const Call& call : calls) {
    EXPECT_EQ(call.run(0), -1) << call.name;
    EXPECT_EQ(thread_errno(), EAGAIN) << call.name;
    EXPECT_EQ(net_parked_count(), 0) << call.name;
  }
  EXPECT_EQ(GlobalSchedStats().net_parks.Load(), parks_before);
  for (const Call& call : calls) {
    int64_t start = MonotonicNowNs();
    EXPECT_EQ(call.run(40 * kMs), -1) << call.name;
    EXPECT_EQ(thread_errno(), ETIME) << call.name;
    EXPECT_GE(MonotonicNowNs() - start, 35 * kMs) << call.name;
  }
  // A zero-length writev sends nothing and succeeds, full socket or not.
  struct iovec empty[2] = {{&out, 0}, {&out, 0}};
  EXPECT_EQ(net_writev_deadline(fds[0], empty, 2, 0), 0);
  EXPECT_EQ(thread_errno(), 0);
  // A deadline that loses the race to data still delivers the data.
  ASSERT_EQ(write(fds[1], "d", 1), 1);
  EXPECT_EQ(net_read_deadline(fds[0], &ch, 1, 5 * kSec), 1);
  EXPECT_EQ(ch, 'd');
  EXPECT_EQ(thread_errno(), 0);
  net_unregister(listener);
  net_unregister(fds[0]);
  close(listener);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetPoller, ConcurrentReadersAndWritersOnOneFd) {
  constexpr int kReaders = 4;
  constexpr int kMessages = 64;  // per writer direction
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  ASSERT_EQ(net_register(fds[1]), 0);
  static std::atomic<int> bytes_read;
  bytes_read.store(0);
  static std::atomic<bool> stop_readers;
  stop_readers.store(false);
  std::vector<thread_id_t> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Spawn([&] {
      char buf[8];
      while (!stop_readers.load()) {
        ssize_t n = net_read_deadline(fds[0], buf, sizeof(buf), 50 * kMs);
        if (n > 0) {
          bytes_read.fetch_add(static_cast<int>(n));
        } else if (thread_errno() != ETIME && thread_errno() != EAGAIN) {
          break;
        }
      }
    }));
  }
  // Two writers race on the other end of the same fd pair.
  std::vector<thread_id_t> writers;
  for (int w = 0; w < 2; ++w) {
    writers.push_back(Spawn([&] {
      for (int i = 0; i < kMessages; ++i) {
        char msg = 'm';
        ASSERT_EQ(net_write(fds[1], &msg, 1), 1);
      }
    }));
  }
  for (thread_id_t id : writers) {
    EXPECT_TRUE(Join(id));
  }
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  while (bytes_read.load() < 2 * kMessages && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
  EXPECT_EQ(bytes_read.load(), 2 * kMessages);
  stop_readers.store(true);
  for (thread_id_t id : readers) {
    EXPECT_TRUE(Join(id));
  }
  net_unregister(fds[0]);
  net_unregister(fds[1]);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetPoller, AcceptConnectLoopbackWithPeerAddress) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(net_register(listener), 0);

  static std::atomic<bool> client_ok;
  client_ok.store(false);
  thread_id_t client = Spawn([&] {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(net_register(fd), 0);
    ASSERT_EQ(net_connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect errno " << thread_errno();
    char buf[8] = {};
    ASSERT_EQ(net_write(fd, "hello", 5), 5);
    ASSERT_EQ(net_read(fd, buf, sizeof(buf)), 5);
    EXPECT_EQ(memcmp(buf, "hello", 5), 0);
    net_unregister(fd);
    close(fd);
    client_ok.store(true);
  });

  sockaddr_in peer = {};
  socklen_t peer_len = sizeof(peer);
  int conn = net_accept(listener, reinterpret_cast<sockaddr*>(&peer), &peer_len);
  ASSERT_GE(conn, 0) << "accept errno " << thread_errno();
  EXPECT_EQ(thread_errno(), 0);
  EXPECT_EQ(peer.sin_family, AF_INET);
  EXPECT_EQ(peer.sin_addr.s_addr, htonl(INADDR_LOOPBACK));
  ASSERT_EQ(net_register(conn), 0);
  char buf[8] = {};
  ASSERT_EQ(net_read(conn, buf, sizeof(buf)), 5);
  ASSERT_EQ(net_write(conn, buf, 5), 5);
  WaitUntil([] { return client_ok.load(); }, 5 * kSec);
  EXPECT_TRUE(Join(client));
  EXPECT_TRUE(client_ok.load());
  net_unregister(conn);
  net_unregister(listener);
  close(conn);
  close(listener);
}

TEST(NetPoller, IoWrappersRouteRegisteredFdsThroughPoller) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  uint64_t parks_before = GlobalSchedStats().net_parks.Load();
  static std::atomic<int> got;
  got.store(-1);
  thread_id_t reader = Spawn([&] {
    char ch = 0;
    // Blocking-style call site: routed to the parking path because the fd is
    // registered. thread_errno must be clear after the success.
    ssize_t n = io_read(fds[0], &ch, 1);
    got.store(n == 1 && thread_errno() == 0 ? ch : -2);
  });
  usleep(20 * 1000);
  EXPECT_EQ(got.load(), -1);
  EXPECT_GT(GlobalSchedStats().net_parks.Load(), parks_before)
      << "io_read did not park via the netpoller";
  char msg = 'r';
  ASSERT_EQ(io_write(fds[1], &msg, 1), 1);  // unregistered: plain path
  EXPECT_TRUE(Join(reader));
  EXPECT_EQ(got.load(), 'r');
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// io_write on a registered fd whose socket is full parks the thread through
// the netpoller instead of pinning its LWP in write(2).
TEST(NetPoller, IoWriteOnRegisteredFdParksThroughPoller) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  int sndbuf = 4 * 1024;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  char fill[1024] = {};
  size_t filled = 0;
  ssize_t n;
  while ((n = write(fds[0], fill, sizeof(fill))) > 0) {
    filled += static_cast<size_t>(n);
  }
  ASSERT_EQ(errno, EAGAIN);  // registering made fds[0] nonblocking
  uint64_t parks_before = GlobalSchedStats().net_parks.Load();
  static std::atomic<int> wrote;
  wrote.store(-1);
  thread_id_t writer = Spawn([&] {
    char ch = 'w';
    ssize_t w = io_write(fds[0], &ch, 1);
    wrote.store(w == 1 && thread_errno() == 0 ? 1 : -2);
  });
  ASSERT_TRUE(WaitUntil([] { return net_parked_count() == 1; }, 5 * kSec))
      << "io_write did not park via the netpoller";
  EXPECT_EQ(wrote.load(), -1);
  EXPECT_GT(GlobalSchedStats().net_parks.Load(), parks_before);
  std::vector<char> got(filled + 1);
  size_t off = 0;
  while (off < got.size()) {  // draining makes room for the parked byte
    ssize_t r = read(fds[1], got.data() + off, got.size() - off);
    ASSERT_GT(r, 0);
    off += static_cast<size_t>(r);
  }
  EXPECT_TRUE(Join(writer));
  EXPECT_EQ(wrote.load(), 1);
  EXPECT_EQ(got[filled], 'w');
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// io_accept on a registered listener parks the thread through the netpoller
// until a connection arrives, and still fills in the peer address.
TEST(NetPoller, IoAcceptOnRegisteredListenerParksThroughPoller) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(net_register(listener), 0);
  uint64_t parks_before = GlobalSchedStats().net_parks.Load();
  static std::atomic<int> accepted;
  static sockaddr_in peer;
  accepted.store(-1);
  peer = {};
  thread_id_t acceptor = Spawn([&] {
    socklen_t peer_len = sizeof(peer);
    int fd = io_accept(listener, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    accepted.store(fd >= 0 && thread_errno() == 0 ? fd : -2);
  });
  ASSERT_TRUE(WaitUntil([] { return net_parked_count() == 1; }, 5 * kSec))
      << "io_accept did not park via the netpoller";
  EXPECT_EQ(accepted.load(), -1);
  EXPECT_GT(GlobalSchedStats().net_parks.Load(), parks_before);
  int client = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_TRUE(Join(acceptor));
  ASSERT_GE(accepted.load(), 0);
  EXPECT_EQ(peer.sin_family, AF_INET);
  EXPECT_EQ(peer.sin_addr.s_addr, htonl(INADDR_LOOPBACK));
  close(accepted.load());
  close(client);
  net_unregister(listener);
  close(listener);
}

TEST(NetPoller, WritevGathersAcrossEntries) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  char a[] = "scatter";
  char b[] = "-";
  char c[] = "gather";
  struct iovec iov[4];
  iov[0] = {a, 7};
  iov[1] = {b, 0};  // zero-length entries are skipped, not an error
  iov[2] = {b, 1};
  iov[3] = {c, 6};
  EXPECT_EQ(net_writev(fds[0], iov, 4), 14);
  EXPECT_EQ(thread_errno(), 0);
  char got[32] = {};
  ASSERT_EQ(read(fds[1], got, sizeof(got)), 14);
  EXPECT_STREQ(got, "scatter-gather");
  // Degenerate counts: 0 entries is a 0-byte send, > NET_IOV_MAX is EINVAL.
  EXPECT_EQ(net_writev(fds[0], iov, 0), 0);
  EXPECT_EQ(net_writev(fds[0], iov, NET_IOV_MAX + 1), -1);
  EXPECT_EQ(thread_errno(), EINVAL);
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// A payload much larger than the socket buffer forces partial writes; the
// continuation must resume mid-entry and preserve byte order end to end.
TEST(NetPoller, WritevContinuesAcrossPartialWrites) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  int sndbuf = 8 * 1024;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  constexpr size_t kChunk = 96 * 1024;
  std::vector<char> chunk1(kChunk), chunk2(kChunk);
  for (size_t i = 0; i < kChunk; ++i) {
    chunk1[i] = static_cast<char>('A' + (i % 23));
    chunk2[i] = static_cast<char>('a' + (i % 23));
  }
  static std::atomic<bool> sent;
  sent.store(false);
  thread_id_t writer = Spawn([&] {
    struct iovec iov[2] = {{chunk1.data(), kChunk}, {chunk2.data(), kChunk}};
    sent.store(net_writev(fds[0], iov, 2) ==
               static_cast<ssize_t>(2 * kChunk));
  });
  std::vector<char> got(2 * kChunk);
  size_t off = 0;
  while (off < got.size()) {
    ssize_t n = read(fds[1], got.data() + off, got.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  EXPECT_TRUE(Join(writer));
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(memcmp(got.data(), chunk1.data(), kChunk), 0);
  EXPECT_EQ(memcmp(got.data() + kChunk, chunk2.data(), kChunk), 0);
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetPoller, WritevDeadlineExpiresWithEtime) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  int sndbuf = 4 * 1024;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  std::vector<char> big(512 * 1024, 'x');
  struct iovec iov[1] = {{big.data(), big.size()}};
  // Nobody reads: the send must block, then time out with the accepted prefix
  // consumed (a partial scatter-gather send is not retractable).
  int64_t start = MonotonicNowNs();
  ssize_t n = net_writev_deadline(fds[0], iov, 1, 40 * kMs);
  EXPECT_EQ(n, -1);
  EXPECT_EQ(thread_errno(), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 35 * kMs);
  // Nonblocking try on the now-full socket reports EAGAIN.
  EXPECT_EQ(net_writev_deadline(fds[0], iov, 1, 0), -1);
  EXPECT_EQ(thread_errno(), EAGAIN);
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// Under forced short transfers every writev degrades to partial sends; the
// continuation loop must still deliver every byte exactly once.
TEST(NetPoller, WritevSurvivesInjectedShortTransfers) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  inject::Configure(/*seed=*/7, /*rate=*/1.0, inject::kOpShort);
  constexpr size_t kChunk = 4 * 1024;
  std::vector<char> chunk(kChunk);
  for (size_t i = 0; i < kChunk; ++i) {
    chunk[i] = static_cast<char>(i % 251);
  }
  static std::atomic<bool> sent;
  sent.store(false);
  thread_id_t writer = Spawn([&] {
    struct iovec iov[3] = {{chunk.data(), kChunk},
                           {chunk.data(), kChunk},
                           {chunk.data(), kChunk}};
    sent.store(net_writev(fds[0], iov, 3) == static_cast<ssize_t>(3 * kChunk));
  });
  std::vector<char> got(3 * kChunk);
  size_t off = 0;
  while (off < got.size()) {
    ssize_t n = read(fds[1], got.data() + off, got.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  EXPECT_TRUE(Join(writer));
  EXPECT_TRUE(sent.load());
  for (int part = 0; part < 3; ++part) {
    EXPECT_EQ(memcmp(got.data() + part * kChunk, chunk.data(), kChunk), 0)
        << "part " << part;
  }
  inject::Disable();
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// HttpServer::Stop relies on this: unregistering an fd wakes the threads
// parked on it with ECANCELED instead of leaving them parked.
TEST(NetPoller, UnregisterCancelsParkedWaiter) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  static std::atomic<int> observed;
  observed.store(0);
  thread_id_t waiter = Spawn([&] {
    char ch;
    EXPECT_EQ(net_read(fds[0], &ch, 1), -1);
    observed.store(thread_errno());
  });
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  while (net_parked_count() == 0 && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
  ASSERT_EQ(net_parked_count(), 1);
  EXPECT_EQ(net_unregister(fds[0]), 0);
  EXPECT_TRUE(Join(waiter));
  EXPECT_EQ(observed.load(), ECANCELED);
  EXPECT_EQ(net_parked_count(), 0);
  close(fds[0]);
  close(fds[1]);
}

// ---- The poll-owner protocol ---------------------------------------------------

// Runs one compute thread per pool LWP until destroyed. thread_yield with
// nothing else queued returns at once, so each keeps its LWP from reaching a
// dispatch: no LWP polls before stealing or owns the poll meanwhile.
class EveryLwpComputing {
 public:
  EveryLwpComputing() {
    stop_.store(false);
    for (int i = 0; i < Runtime::Get().pool_size(); ++i) {
      ids_.push_back(Spawn([] {
        while (!stop_.load()) {
          thread_yield();
        }
      }));
    }
    running_ = WaitUntil(
        [this] {
          std::vector<LwpSnapshot> lwps = PoolLwps();
          for (const LwpSnapshot& lwp : lwps) {
            bool computing = false;
            for (thread_id_t id : ids_) {
              computing = computing || lwp.running_thread == id;
            }
            if (!computing || lwp.poll_owner) {
              return false;
            }
          }
          return !lwps.empty();
        },
        5 * kSec);
  }
  ~EveryLwpComputing() {
    stop_.store(true);
    for (thread_id_t id : ids_) {
      EXPECT_TRUE(Join(id));
    }
  }
  bool running() const { return running_; }

 private:
  static std::atomic<bool> stop_;
  std::vector<thread_id_t> ids_;
  bool running_ = false;
};
std::atomic<bool> EveryLwpComputing::stop_;

// Watchdog backstop: with every pool LWP computing, nobody owns the poll or
// polls before stealing. The watchdog's timeout-0 poll must still wake a
// parked reader, which runs when a compute thread next yields.
TEST(NetPoller, ReaderWakesWhileEveryLwpComputes) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  static std::atomic<bool> done;
  done.store(false);
  thread_id_t reader = Spawn([&] {
    char ch;
    done.store(net_read(fds[0], &ch, 1) == 1);
  });
  ASSERT_TRUE(WaitUntil([] { return net_parked_count() == 1; }, 5 * kSec));
  {
    EveryLwpComputing busy;
    ASSERT_TRUE(busy.running());
    ASSERT_EQ(write(fds[1], "w", 1), 1);
    EXPECT_TRUE(WaitUntil([] { return done.load(); }, 5 * kSec));
  }
  EXPECT_TRUE(Join(reader));
  EXPECT_TRUE(done.load());
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// A bound thread's LWP never reaches the pool's idle path. When it parks on an
// fd while every pool LWP sleeps on its futex (nobody owns the poll), it hands
// the poll to an idle pool LWP rather than wait for the watchdog.
TEST(NetPoller, BoundParkerHandsThePollToAnIdleLwp) {
  ASSERT_EQ(net_parked_count(), 0);
  {
    EveryLwpComputing busy;  // kicks out an owner left idle in epoll_wait
    ASSERT_TRUE(busy.running());
  }
  ASSERT_TRUE(WaitUntil(
      [] {
        for (const LwpSnapshot& lwp : PoolLwps()) {
          if (lwp.running_thread != kInvalidThreadId || lwp.poll_owner) {
            return false;
          }
        }
        return true;
      },
      5 * kSec));
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  constexpr int kRounds = 20;
  // Echoes kRounds bytes; each read parks the bound thread on the fd.
  thread_id_t echo = Spawn(
      [&] {
        char ch;
        for (int i = 0; i < kRounds; ++i) {
          if (net_read(fds[0], &ch, 1) != 1 || net_write(fds[0], &ch, 1) != 1) {
            return;
          }
        }
      },
      THREAD_WAIT | THREAD_BIND_LWP);
  ASSERT_TRUE(WaitUntil([] { return net_parked_count() == 1; }, 5 * kSec));
  EXPECT_TRUE(WaitUntil([] { return PollOwnerId() != -1; }, 5 * kSec))
      << "no pool LWP took the poll for the parked bound thread";
  for (int i = 0; i < kRounds; ++i) {
    char ch = static_cast<char>('a' + i);
    ASSERT_EQ(write(fds[1], &ch, 1), 1);
    char back = 0;
    ASSERT_EQ(read(fds[1], &back, 1), 1);  // plain blocking read
    EXPECT_EQ(back, ch);
  }
  EXPECT_TRUE(Join(echo));
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// The poll owner's epoll_wait is idle time, not an indefinite kernel wait: with
// one pool LWP owning the poll and the other pinned in a blocking io_read,
// SIGWAITING must not grow the pool, and a newly runnable thread still runs
// because NotifyWork kicks the owner out of epoll_wait.
TEST(NetPoller, SigwaitingIgnoresThePollOwner) {
  signal_enable_sigwaiting();
  ASSERT_EQ(Runtime::Get().pool_size(), 2);
  int sock[2];
  MakeSocketpair(sock);
  ASSERT_EQ(net_register(sock[0]), 0);
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  thread_id_t reader = Spawn([&] {
    char ch;
    net_read(sock[0], &ch, 1);
  });
  ASSERT_TRUE(WaitUntil([] { return net_parked_count() == 1; }, 5 * kSec));
  thread_id_t blocker = Spawn([&] {
    char ch;
    io_read(pipefd[0], &ch, 1);  // unregistered: pins its LWP in the kernel
  });
  auto owner_and_pinned = [] {
    int owners = 0;
    int pinned = 0;
    for (const LwpSnapshot& lwp : PoolLwps()) {
      owners += lwp.poll_owner ? 1 : 0;
      pinned += !lwp.poll_owner && lwp.indefinite_wait ? 1 : 0;
    }
    return owners == 1 && pinned == 1;
  };
  ASSERT_TRUE(WaitUntil(owner_and_pinned, 5 * kSec));
  for (const LwpSnapshot& lwp : PoolLwps()) {
    if (lwp.poll_owner) {
      EXPECT_FALSE(lwp.indefinite_wait) << "the owner's epoll_wait counts for SIGWAITING";
    }
  }
  int pool_before = Runtime::Get().pool_size();
  uint64_t sigwaiting_before = Runtime::Get().sigwaiting_count();
  static std::atomic<bool> ran;
  ran.store(false);
  thread_id_t runner = Spawn([] { ran.store(true); });
  EXPECT_TRUE(WaitUntil([] { return ran.load(); }, 5 * kSec))
      << "the runnable thread never ran: the poll owner was not kicked";
  EXPECT_EQ(Runtime::Get().pool_size(), pool_before);
  EXPECT_EQ(Runtime::Get().sigwaiting_count(), sigwaiting_before);
  ASSERT_EQ(write(pipefd[1], "x", 1), 1);
  ASSERT_EQ(write(sock[1], "y", 1), 1);
  EXPECT_TRUE(Join(runner));
  EXPECT_TRUE(Join(blocker));
  EXPECT_TRUE(Join(reader));
  net_unregister(sock[0]);
  close(sock[0]);
  close(sock[1]);
  close(pipefd[0]);
  close(pipefd[1]);
}

// thread_setconcurrency retires pool LWPs from the front of the pool; when
// the poll owner is among them it sits in epoll_wait, not on its futex, and
// must be kicked out for the shrink to complete. The poll then passes on.
TEST(NetPoller, ShrinkRetiresThePollOwner) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  static std::atomic<bool> done;
  done.store(false);
  thread_id_t reader = Spawn([&] {
    char ch;
    done.store(net_read(fds[0], &ch, 1) == 1);
  });
  ASSERT_TRUE(WaitUntil([] { return PollOwnerId() != -1; }, 5 * kSec));
  auto owner_index = [] {
    std::vector<LwpSnapshot> lwps = PoolLwps();
    for (size_t i = 0; i < lwps.size(); ++i) {
      if (lwps[i].poll_owner) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int n = static_cast<int>(PoolLwps().size());
  int index = owner_index();
  ASSERT_GE(index, 0);
  if (index == n - 1) {
    // The owner is last and would survive any shrink: add an LWP behind it.
    // Nothing wakes the owner, so it keeps the poll.
    ASSERT_EQ(thread_setconcurrency(n + 1), 0);
    ++n;
    ASSERT_TRUE(WaitUntil([&] { return static_cast<int>(PoolLwps().size()) == n; },
                          5 * kSec));
    index = owner_index();
    ASSERT_GE(index, 0);
    ASSERT_LT(index, n - 1);
  }
  int owner = PollOwnerId();
  int target = n - index - 1;  // retires pool LWPs [0, index]
  ASSERT_EQ(thread_setconcurrency(target), 0);
  // The snapshot lists an LWP until its kernel thread leaves, a little after
  // it leaves the pool.
  EXPECT_TRUE(WaitUntil(
      [&] {
        return Runtime::Get().pool_size() == target &&
               static_cast<int>(PoolLwps().size()) == target;
      },
      5 * kSec))
      << "shrink stalled: the poll owner was not kicked out of epoll_wait";
  for (const LwpSnapshot& lwp : PoolLwps()) {
    EXPECT_NE(lwp.id, owner);
  }
  ASSERT_EQ(write(fds[1], "s", 1), 1);
  EXPECT_TRUE(WaitUntil([] { return done.load(); }, 5 * kSec));
  EXPECT_TRUE(Join(reader));
  thread_setconcurrency(2);
  thread_setconcurrency(0);
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// The tentpole's economic claim, as a regression test: a storm of threads
// blocked on socket I/O keeps the LWP pool flat when parked via the poller,
// while the same storm on the blocking path must grow the pool (SIGWAITING)
// to avoid deadlock.
TEST(NetPoller, SocketStormKeepsPoolFlatWhereBlockingPathGrowsIt) {
  signal_enable_sigwaiting();
  constexpr int kStorm = 12;
  int pool_before = Runtime::Get().pool_size();

  // Phase 1: poller path. kStorm threads park on silent registered sockets.
  int fds[kStorm][2];
  static std::atomic<int> woken;
  woken.store(0);
  std::vector<thread_id_t> parked;
  for (int i = 0; i < kStorm; ++i) {
    MakeSocketpair(fds[i]);
    ASSERT_EQ(net_register(fds[i][0]), 0);
    parked.push_back(Spawn([&, i] {
      char ch;
      if (net_read(fds[i][0], &ch, 1) == 1) {
        woken.fetch_add(1);
      }
    }));
  }
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  while (net_parked_count() < kStorm && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
  ASSERT_EQ(net_parked_count(), kStorm);
  // Give the watchdog time to (wrongly) grow the pool if parked threads were
  // holding LWPs in kernel waits. They are not: the pool must stay flat.
  usleep(50 * 1000);
  EXPECT_EQ(Runtime::Get().pool_size(), pool_before)
      << "poller path should not trigger SIGWAITING growth";
  for (int i = 0; i < kStorm; ++i) {
    ASSERT_EQ(write(fds[i][1], "w", 1), 1);
  }
  for (thread_id_t id : parked) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(woken.load(), kStorm);
  for (int i = 0; i < kStorm; ++i) {
    net_unregister(fds[i][0]);
    close(fds[i][0]);
    close(fds[i][1]);
  }

  // Phase 2: blocking path. Unregistered pipes pin LWPs in indefinite kernel
  // waits; with runnable threads starving behind them, SIGWAITING must grow
  // the pool (the cost the poller path avoids).
  uint64_t sigwaiting_before = Runtime::Get().sigwaiting_count();
  int pipes[4][2];
  std::vector<thread_id_t> blockers;
  for (auto& p : pipes) {
    ASSERT_EQ(pipe(p), 0);
    blockers.push_back(Spawn([&p] {
      char ch;
      io_read(p[0], &ch, 1);  // LWP pinned in the kernel
    }));
  }
  static std::atomic<bool> runner_done;
  runner_done.store(false);
  thread_id_t runner = Spawn([&] { runner_done.store(true); });
  WaitUntil([] { return runner_done.load(); }, 5 * kSec);
  EXPECT_TRUE(runner_done.load()) << "SIGWAITING never grew the pool";
  // The runner may get an LWP before every blocker has pinned one, but four
  // blockers on the smaller pool leave some queued behind pinned LWPs, and
  // only SIGWAITING growth can run those.
  WaitUntil([&] { return Runtime::Get().pool_size() > pool_before; }, 5 * kSec);
  EXPECT_GT(Runtime::Get().pool_size(), pool_before);
  EXPECT_GT(Runtime::Get().sigwaiting_count(), sigwaiting_before);
  for (auto& p : pipes) {
    ASSERT_EQ(write(p[1], "x", 1), 1);
  }
  for (thread_id_t id : blockers) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_TRUE(Join(runner));
  for (auto& p : pipes) {
    close(p[0]);
    close(p[1]);
  }
}

// Last: stopping the poller with threads still parked must wake them all with
// ECANCELED (and the stopped poller refuses new parks the same way).
TEST(NetShutdown, StopWakesParkedThreadsWithEcanceled) {
  constexpr int kParked = 6;
  int fds[kParked][2];
  static std::atomic<int> cancelled;
  cancelled.store(0);
  std::vector<thread_id_t> ids;
  for (int i = 0; i < kParked; ++i) {
    MakeSocketpair(fds[i]);
    ASSERT_EQ(net_register(fds[i][0]), 0);
    ids.push_back(Spawn([&, i] {
      char ch;
      if (net_read(fds[i][0], &ch, 1) == -1 && thread_errno() == ECANCELED) {
        cancelled.fetch_add(1);
      }
    }));
  }
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  while (net_parked_count() < kParked && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
  ASSERT_EQ(net_parked_count(), kParked);
  EXPECT_EQ(net_poller_stop(), 0);
  EXPECT_FALSE(net_poller_running());
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(cancelled.load(), kParked);
  EXPECT_EQ(net_parked_count(), 0);
  // Stopped poller: new waits fail fast with ECANCELED instead of hanging.
  char ch;
  EXPECT_EQ(net_read(fds[0][0], &ch, 1), -1);
  EXPECT_EQ(thread_errno(), ECANCELED);
  for (int i = 0; i < kParked; ++i) {
    net_unregister(fds[i][0]);
    close(fds[i][0]);
    close(fds[i][1]);
  }
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = 2;  // small fixed pool makes flat-vs-grow visible
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
