// Message queue tests: geometry, blocking/try/timed send-receive, MPMC
// conservation, and cross-process operation through a shared arena.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/msgq/message_queue.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

constexpr int64_t kWaitNs = 5'000'000'000;

MessageQueue* MakeLocalQueue(uint32_t msg_size, uint32_t capacity) {
  void* memory = calloc(1, MessageQueue::FootprintBytes(msg_size, capacity));
  return MessageQueue::CreateAt(memory, msg_size, capacity, 0);
}

TEST(MessageQueue, CreateValidatesArguments) {
  char memory[1024] = {};
  EXPECT_EQ(MessageQueue::CreateAt(nullptr, 8, 4, 0), nullptr);
  EXPECT_EQ(MessageQueue::CreateAt(memory, 0, 4, 0), nullptr);
  EXPECT_EQ(MessageQueue::CreateAt(memory, 8, 0, 0), nullptr);
  EXPECT_NE(MessageQueue::CreateAt(memory, 8, 4, 0), nullptr);
}

TEST(MessageQueue, OpenValidatesMagic) {
  char garbage[256] = {};
  EXPECT_EQ(MessageQueue::OpenAt(garbage), nullptr);
  MessageQueue* q = MakeLocalQueue(16, 4);
  EXPECT_EQ(MessageQueue::OpenAt(q), q);
}

TEST(MessageQueue, RoundTripPreservesLengthAndBytes) {
  MessageQueue* q = MakeLocalQueue(64, 4);
  const char msg[] = "hello, lwp";
  ASSERT_TRUE(q->Send(msg, sizeof(msg)));
  char buf[64] = {};
  EXPECT_EQ(q->Recv(buf, sizeof(buf)), sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST(MessageQueue, RejectsOversizedMessages) {
  MessageQueue* q = MakeLocalQueue(8, 2);
  char big[32] = {};
  EXPECT_FALSE(q->Send(big, sizeof(big)));
  EXPECT_FALSE(q->TrySend(big, sizeof(big)));
  EXPECT_FALSE(q->SendTimed(big, sizeof(big), 1000));
}

// A short-buffer Recv must return the bytes it actually copied (never more
// than the buffer can hold — the old contract returned the full message
// length, inviting callers to overread their own buffer) and surface the
// sender's original length through the out-parameter.
TEST(MessageQueue, TruncatingRecvReturnsCopiedAndExposesFullLength) {
  MessageQueue* q = MakeLocalQueue(32, 2);
  const char msg[] = "0123456789";
  ASSERT_TRUE(q->Send(msg, 10));
  char tiny[4] = {};
  size_t full_len = 0;
  EXPECT_EQ(q->Recv(tiny, sizeof(tiny), &full_len), sizeof(tiny));
  EXPECT_EQ(full_len, 10u);
  EXPECT_EQ(memcmp(tiny, "0123", 4), 0);
  // An exact-fit receive copies everything and reports the same length twice.
  ASSERT_TRUE(q->Send(msg, 10));
  char big[16] = {};
  EXPECT_EQ(q->Recv(big, sizeof(big), &full_len), 10u);
  EXPECT_EQ(full_len, 10u);
}

// Regression: ring indices used to be free-running uint32_t with
// SlotAt(index % capacity). At the 2^32 wrap with a non-power-of-two capacity
// the modulo sequence jumps ((2^32-1) % 3 == 0 is followed by 0 % 3 == 0), so
// a producer would overwrite an unread slot and a consumer would replay
// another. Positions now wrap at capacity; this starts the ring as if ~2^32
// messages had already passed through and walks it across the old boundary.
TEST(MessageQueue, IndexWrapNearUint32MaxKeepsFifoIntact) {
  constexpr uint32_t kCapacity = 3;  // non-power-of-two: 2^32 % 3 != 0
  MessageQueue* q = MakeLocalQueue(16, kCapacity);
  q->TestOnlySetLogicalPositions(UINT32_MAX - 1);
  // Fill the ring, then stream across the historical wrap point with the
  // queue kept full — exactly the state where the old arithmetic clobbered
  // unread slots.
  uint64_t next_send = 0;
  uint64_t next_recv = 0;
  for (; next_send < kCapacity; ++next_send) {
    ASSERT_TRUE(q->Send(&next_send, sizeof(next_send)));
  }
  for (int step = 0; step < 64; ++step) {
    uint64_t got = ~0ull;
    ASSERT_EQ(q->Recv(&got, sizeof(got)), sizeof(got));
    EXPECT_EQ(got, next_recv) << "FIFO order broke at step " << step;
    ++next_recv;
    ASSERT_TRUE(q->Send(&next_send, sizeof(next_send)));
    ++next_send;
  }
  // Drain and verify the tail survived untouched.
  while (next_recv < next_send) {
    uint64_t got = ~0ull;
    ASSERT_EQ(q->Recv(&got, sizeof(got)), sizeof(got));
    EXPECT_EQ(got, next_recv);
    ++next_recv;
  }
  EXPECT_EQ(q->Depth(), 0u);
}

TEST(MessageQueue, TryOpsReflectFullAndEmpty) {
  MessageQueue* q = MakeLocalQueue(8, 2);
  int v = 1;
  EXPECT_EQ(q->Depth(), 0u);
  EXPECT_TRUE(q->TrySend(&v, sizeof(v)));
  EXPECT_EQ(q->Depth(), 1u);  // exact while quiesced, not an approximation
  EXPECT_TRUE(q->TrySend(&v, sizeof(v)));
  EXPECT_FALSE(q->TrySend(&v, sizeof(v)));  // full
  EXPECT_EQ(q->Depth(), 2u);
  int out;
  EXPECT_EQ(q->TryRecv(&out, sizeof(out)), sizeof(int));
  EXPECT_EQ(q->Depth(), 1u);
  EXPECT_EQ(q->TryRecv(&out, sizeof(out)), sizeof(int));
  EXPECT_EQ(q->TryRecv(&out, sizeof(out)), SIZE_MAX);  // empty
  EXPECT_EQ(q->Depth(), 0u);
}

TEST(MessageQueue, TimedOpsTimeOut) {
  MessageQueue* q = MakeLocalQueue(8, 1);
  int v = 7;
  int64_t start = MonotonicNowNs();
  char buf[8];
  EXPECT_EQ(q->RecvTimed(buf, sizeof(buf), 10 * 1000 * 1000), SIZE_MAX);
  EXPECT_GE(MonotonicNowNs() - start, 9 * 1000 * 1000);
  ASSERT_TRUE(q->Send(&v, sizeof(v)));
  start = MonotonicNowNs();
  EXPECT_FALSE(q->SendTimed(&v, sizeof(v), 10 * 1000 * 1000));  // full
  EXPECT_GE(MonotonicNowNs() - start, 9 * 1000 * 1000);
  EXPECT_EQ(q->RecvTimed(buf, sizeof(buf), 10 * 1000 * 1000), sizeof(int));
}

TEST(MessageQueue, SenderBlocksUntilReceiverDrains) {
  static MessageQueue* q;
  q = MakeLocalQueue(8, 1);
  int v = 1;
  ASSERT_TRUE(q->Send(&v, sizeof(v)));  // full now
  static std::atomic<int> sent;
  sent.store(0);
  thread_id_t sender = Spawn([&] {
    int v2 = 2;
    q->Send(&v2, sizeof(v2));  // blocks
    sent.store(1);
  });
  ASSERT_TRUE(WaitForState(sender, "BLOCKED", kWaitNs));
  EXPECT_EQ(sent.load(), 0);
  int out = 0;
  EXPECT_EQ(q->Recv(&out, sizeof(out)), sizeof(int));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(Join(sender));
  EXPECT_EQ(sent.load(), 1);
  EXPECT_EQ(q->Recv(&out, sizeof(out)), sizeof(int));
  EXPECT_EQ(out, 2);
}

TEST(MessageQueue, MpmcConservation) {
  static MessageQueue* q;
  q = MakeLocalQueue(sizeof(long), 8);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr long kPerProducer = 900;
  static std::atomic<long> sum_in, sum_out, received;
  sum_in.store(0);
  sum_out.store(0);
  received.store(0);

  std::vector<thread_id_t> ids;
  for (int p = 0; p < kProducers; ++p) {
    ids.push_back(Spawn([p] {
      for (long i = 0; i < kPerProducer; ++i) {
        long value = p * 10000 + i;
        sum_in.fetch_add(value);
        q->Send(&value, sizeof(value));
      }
    }));
  }
  constexpr long kTotal = kProducers * kPerProducer;
  for (int c = 0; c < kConsumers; ++c) {
    ids.push_back(Spawn([] {
      long value;
      while (received.fetch_add(1) < kTotal) {
        if (q->RecvTimed(&value, sizeof(value), 2 * 1000 * 1000 * 1000ll) == SIZE_MAX) {
          break;
        }
        sum_out.fetch_add(value);
      }
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(sum_out.load(), sum_in.load());
}

TEST(MessageQueue, CrossProcessRequestResponse) {
  SharedArena arena = SharedArena::CreateAnonymous(256 * 1024);
  void* req_mem = arena.At<char>(
      arena.Alloc(MessageQueue::FootprintBytes(64, 8), alignof(std::max_align_t)));
  void* rsp_mem = arena.At<char>(
      arena.Alloc(MessageQueue::FootprintBytes(64, 8), alignof(std::max_align_t)));
  MessageQueue* requests = MessageQueue::CreateAt(req_mem, 64, 8, THREAD_SYNC_SHARED);
  MessageQueue* responses = MessageQueue::CreateAt(rsp_mem, 64, 8, THREAD_SYNC_SHARED);
  ASSERT_NE(requests, nullptr);
  ASSERT_NE(responses, nullptr);
  constexpr int kRounds = 400;

  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Server process: uppercase echo until "QUIT".
    MessageQueue* in = MessageQueue::OpenAt(req_mem);
    MessageQueue* out = MessageQueue::OpenAt(rsp_mem);
    if (in == nullptr || out == nullptr) {
      _exit(20);
    }
    char buf[64];
    for (;;) {
      size_t len = in->Recv(buf, sizeof(buf));
      if (len == 4 && memcmp(buf, "QUIT", 4) == 0) {
        _exit(0);
      }
      for (size_t i = 0; i < len; ++i) {
        buf[i] = static_cast<char>(buf[i] - 'a' + 'A');
      }
      out->Send(buf, len);
    }
  }
  for (int i = 0; i < kRounds; ++i) {
    char msg[16];
    int len = snprintf(msg, sizeof(msg), "msg%c", 'a' + (i % 26));
    ASSERT_TRUE(requests->Send(msg, static_cast<size_t>(len)));
    char reply[64];
    size_t got = responses->Recv(reply, sizeof(reply));
    ASSERT_EQ(got, static_cast<size_t>(len));
    EXPECT_EQ(reply[0], 'M');
  }
  ASSERT_TRUE(requests->Send("QUIT", 4));
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace sunmt
