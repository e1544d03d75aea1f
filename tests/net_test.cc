// Netpoller tests: park/wake on readiness, deadlines, concurrent waiters on
// one fd, io_* routing, the SIGWAITING contrast (poller keeps the pool flat
// where the blocking path must grow it), and shutdown under parked threads.
//
// Test order is load-bearing (gtest runs tests in declaration order within a
// binary): inline-fallback tests run before net_poller_start() switches the
// process to dedicated mode, and the pool-growth / shutdown tests run last
// because the pool never shrinks and a stopped poller stays stopped.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/inject/inject.h"
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

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSec = 1000 * kMs;

void MakeSocketpair(int fds[2]) {
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
}

void WaitFor(const std::atomic<bool>& flag, int64_t timeout_ns = 5 * kSec) {
  int64_t deadline = MonotonicNowNs() + timeout_ns;
  while (!flag.load() && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
}

// ---- Inline fallback (before any net_poller_start) --------------------------

TEST(NetInline, RegisterMakesNonblockingAndIsIdempotent) {
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

TEST(NetInline, ParkAndWakeWithoutDedicatedPoller) {
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
  WaitFor(done);
  EXPECT_TRUE(Join(reader));
  EXPECT_EQ(got.load(), 'i');
  EXPECT_EQ(net_unregister(fds[0]), 0);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetInline, DeadlineExpiresWithEtime) {
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

// ---- Dedicated mode ---------------------------------------------------------

TEST(NetDedicated, StartIsIdempotentAndKeepsPoolFree) {
  size_t lwps_before = LwpRegistry::Count();
  ASSERT_EQ(net_poller_start(), 0);
  EXPECT_EQ(net_poller_start(), 0);
  EXPECT_TRUE(net_poller_running());
  // The poller runs on its own bound LWP: exactly one new LWP, pool unchanged.
  // (The LWP registers itself from its own start routine, hence the poll.)
  int64_t deadline = MonotonicNowNs() + 5 * kSec;
  while (LwpRegistry::Count() < lwps_before + 1 && MonotonicNowNs() < deadline) {
    usleep(1000);
  }
  EXPECT_EQ(LwpRegistry::Count(), lwps_before + 1);
  EXPECT_EQ(Runtime::Get().pool_size(), 2);
}

TEST(NetDedicated, ParkAndWake) {
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
  WaitFor(done);
  EXPECT_TRUE(Join(echo));
  EXPECT_GT(GlobalSchedStats().net_parks.Load(), parks_before);
  EXPECT_EQ(net_parked_count(), 0);
  net_unregister(fds[0]);
  net_unregister(fds[1]);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetDedicated, DeadlineAndNonblockingTry) {
  int fds[2];
  MakeSocketpair(fds);
  ASSERT_EQ(net_register(fds[0]), 0);
  char ch;
  // Nonblocking try on an empty socket reports EAGAIN like the raw syscall.
  EXPECT_EQ(net_read_deadline(fds[0], &ch, 1, 0), -1);
  EXPECT_EQ(thread_errno(), EAGAIN);
  int64_t start = MonotonicNowNs();
  EXPECT_EQ(net_read_deadline(fds[0], &ch, 1, 40 * kMs), -1);
  EXPECT_EQ(thread_errno(), ETIME);
  EXPECT_GE(MonotonicNowNs() - start, 35 * kMs);
  // A deadline that loses the race to data still delivers the data.
  ASSERT_EQ(write(fds[1], "d", 1), 1);
  EXPECT_EQ(net_read_deadline(fds[0], &ch, 1, 5 * kSec), 1);
  EXPECT_EQ(ch, 'd');
  EXPECT_EQ(thread_errno(), 0);
  net_unregister(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetDedicated, ConcurrentReadersAndWritersOnOneFd) {
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

TEST(NetDedicated, AcceptConnectLoopbackWithPeerAddress) {
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
  WaitFor(client_ok);
  EXPECT_TRUE(Join(client));
  EXPECT_TRUE(client_ok.load());
  net_unregister(conn);
  net_unregister(listener);
  close(conn);
  close(listener);
}

TEST(NetDedicated, IoWrappersRouteRegisteredFdsThroughPoller) {
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

TEST(NetDedicated, WritevGathersAcrossEntries) {
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
TEST(NetDedicated, WritevContinuesAcrossPartialWrites) {
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

TEST(NetDedicated, WritevDeadlineExpiresWithEtime) {
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
TEST(NetDedicated, WritevSurvivesInjectedShortTransfers) {
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
TEST(NetDedicated, UnregisterCancelsParkedWaiter) {
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

// The tentpole's economic claim, as a regression test: a storm of threads
// blocked on socket I/O keeps the LWP pool flat when parked via the poller,
// while the same storm on the blocking path must grow the pool (SIGWAITING)
// to avoid deadlock.
TEST(NetDedicated, SocketStormKeepsPoolFlatWhereBlockingPathGrowsIt) {
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
  WaitFor(runner_done);
  EXPECT_TRUE(runner_done.load()) << "SIGWAITING never grew the pool";
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
