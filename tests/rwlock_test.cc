// Readers/writer lock tests: shared reads, exclusive writes, downgrade,
// tryupgrade, writer preference, and variant sweeps.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "src/core/thread.h"
#include "src/sync/sync.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForState;

constexpr int64_t kWaitNs = 5'000'000'000;

TEST(Rwlock, ZeroInitializedIsUsable) {
  static rwlock_t rw;
  rw_enter(&rw, RW_READER);
  rw_exit(&rw);
  rw_enter(&rw, RW_WRITER);
  rw_exit(&rw);
}

TEST(Rwlock, MultipleReadersSimultaneously) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static std::atomic<int> inside;
  static std::atomic<int> max_inside;
  inside.store(0);
  max_inside.store(0);
  static sema_t all_in;
  sema_init(&all_in, 0, 0, nullptr);
  constexpr int kReaders = 4;
  std::vector<thread_id_t> ids;
  for (int i = 0; i < kReaders; ++i) {
    ids.push_back(Spawn([&] {
      rw_enter(&rw, RW_READER);
      int now = inside.fetch_add(1) + 1;
      int prev = max_inside.load();
      while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
      }
      // Hold until every reader has arrived, proving concurrent read access.
      if (now == kReaders) {
        for (int j = 0; j < kReaders; ++j) {
          sema_v(&all_in);
        }
      }
      sema_p(&all_in);
      inside.fetch_sub(1);
      rw_exit(&rw);
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(max_inside.load(), kReaders);
}

TEST(Rwlock, WriterExcludesReaders) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static std::atomic<int> reader_entered;
  reader_entered.store(0);
  rw_enter(&rw, RW_WRITER);
  thread_id_t reader = Spawn([&] {
    rw_enter(&rw, RW_READER);
    reader_entered.store(1);
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(reader, "BLOCKED", kWaitNs));
  EXPECT_EQ(reader_entered.load(), 0);  // blocked behind the writer
  rw_exit(&rw);
  EXPECT_TRUE(Join(reader));
  EXPECT_EQ(reader_entered.load(), 1);
}

TEST(Rwlock, WriterExcludesWriter) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static std::atomic<int> second_in;
  second_in.store(0);
  rw_enter(&rw, RW_WRITER);
  thread_id_t other = Spawn([&] {
    rw_enter(&rw, RW_WRITER);
    second_in.store(1);
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(other, "BLOCKED", kWaitNs));
  EXPECT_EQ(second_in.load(), 0);
  rw_exit(&rw);
  EXPECT_TRUE(Join(other));
  EXPECT_EQ(second_in.load(), 1);
}

TEST(Rwlock, TryenterSemantics) {
  rwlock_t rw = {};
  EXPECT_EQ(rw_tryenter(&rw, RW_READER), 1);
  EXPECT_EQ(rw_tryenter(&rw, RW_READER), 1);  // readers share
  EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 0);  // writer excluded by readers
  rw_exit(&rw);
  rw_exit(&rw);
  EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 1);
  EXPECT_EQ(rw_tryenter(&rw, RW_READER), 0);  // reader excluded by writer
  EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 0);
  rw_exit(&rw);
}

TEST(Rwlock, NewReadersQueueBehindWaitingWriter) {
  // Writer preference: with a writer waiting, fresh readers must not slip in.
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static std::atomic<int> writer_done;
  static std::atomic<int> late_reader_in;
  writer_done.store(0);
  late_reader_in.store(0);
  rw_enter(&rw, RW_READER);  // main holds a read lock
  thread_id_t writer = Spawn([&] {
    rw_enter(&rw, RW_WRITER);  // waits behind main's read hold
    writer_done.store(1);
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(writer, "BLOCKED", kWaitNs));
  thread_id_t late_reader = Spawn([&] {
    rw_enter(&rw, RW_READER);  // must queue behind the waiting writer
    late_reader_in.store(1);
    EXPECT_EQ(writer_done.load(), 1);  // writer went first
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(late_reader, "BLOCKED", kWaitNs));
  EXPECT_EQ(late_reader_in.load(), 0);  // reader kept out while writer waits
  rw_exit(&rw);                         // release: writer, then reader
  EXPECT_TRUE(Join(writer));
  EXPECT_TRUE(Join(late_reader));
}

TEST(Rwlock, DowngradeAdmitsPendingReaders) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static std::atomic<int> readers_in;
  readers_in.store(0);
  rw_enter(&rw, RW_WRITER);
  std::vector<thread_id_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(Spawn([&] {
      rw_enter(&rw, RW_READER);
      readers_in.fetch_add(1);
      while (readers_in.load() < 3) {
        thread_yield();  // all three must be in simultaneously with main
      }
      rw_exit(&rw);
    }));
  }
  for (thread_id_t id : ids) {
    ASSERT_TRUE(WaitForState(id, "BLOCKED", kWaitNs));
  }
  EXPECT_EQ(readers_in.load(), 0);
  rw_downgrade(&rw);  // writer -> reader; pending readers flood in
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_EQ(readers_in.load(), 3);
  rw_exit(&rw);  // main's downgraded reader hold
  // Lock fully free again:
  EXPECT_EQ(rw_tryenter(&rw, RW_WRITER), 1);
  rw_exit(&rw);
}

TEST(Rwlock, TryupgradeSoleReaderSucceeds) {
  rwlock_t rw = {};
  rw_enter(&rw, RW_READER);
  EXPECT_EQ(rw_tryupgrade(&rw), 1);
  // Now a writer: everything else excluded.
  EXPECT_EQ(rw_tryenter(&rw, RW_READER), 0);
  rw_exit(&rw);
}

TEST(Rwlock, TryupgradeWaitsForOtherReadersToDrain) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  static sema_t other_in, release_other;
  sema_init(&other_in, 0, 0, nullptr);
  sema_init(&release_other, 0, 0, nullptr);
  static std::atomic<int> upgraded;
  upgraded.store(0);
  thread_id_t other = Spawn([&] {
    rw_enter(&rw, RW_READER);
    sema_v(&other_in);
    sema_p(&release_other);
    rw_exit(&rw);
  });
  sema_p(&other_in);
  thread_id_t upgrader = Spawn([&] {
    rw_enter(&rw, RW_READER);
    int ok = rw_tryupgrade(&rw);  // must wait for `other` to leave
    upgraded.store(ok == 1 ? 1 : -1);
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(upgrader, "BLOCKED", kWaitNs));
  EXPECT_EQ(upgraded.load(), 0);  // still waiting on the other reader
  sema_v(&release_other);
  EXPECT_TRUE(Join(other));
  EXPECT_TRUE(Join(upgrader));
  EXPECT_EQ(upgraded.load(), 1);
}

TEST(Rwlock, TryupgradeFailsWhenWriterWaits) {
  static rwlock_t rw;
  rw_init(&rw, 0, nullptr);
  rw_enter(&rw, RW_READER);
  static std::atomic<int> writer_got;
  writer_got.store(0);
  thread_id_t writer = Spawn([&] {
    rw_enter(&rw, RW_WRITER);
    writer_got.store(1);
    rw_exit(&rw);
  });
  ASSERT_TRUE(WaitForState(writer, "BLOCKED", kWaitNs));
  // "If there are any writers waiting, it returns a failure indication."
  EXPECT_EQ(rw_tryupgrade(&rw), 0);
  rw_exit(&rw);
  EXPECT_TRUE(Join(writer));
}

// Property sweep: invariant "writer alone, readers share" across variants and
// reader/writer mixes.
class RwlockPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RwlockPropertyTest, InvariantHolds) {
  const int variant = std::get<0>(GetParam());
  const int readers = std::get<1>(GetParam());
  const int writers = std::get<2>(GetParam());
  constexpr int kIters = 300;

  static rwlock_t rw;
  rw_init(&rw, variant, nullptr);
  static std::atomic<int> reader_count;
  static std::atomic<int> writer_count;
  static std::atomic<bool> violation;
  reader_count.store(0);
  writer_count.store(0);
  violation.store(false);

  std::vector<thread_id_t> ids;
  for (int r = 0; r < readers; ++r) {
    ids.push_back(Spawn([=] {
      for (int i = 0; i < kIters; ++i) {
        rw_enter(&rw, RW_READER);
        reader_count.fetch_add(1);
        if (writer_count.load() != 0) {
          violation.store(true);
        }
        reader_count.fetch_sub(1);
        rw_exit(&rw);
        if (i % 32 == 0) {
          thread_yield();
        }
      }
    }));
  }
  for (int w = 0; w < writers; ++w) {
    ids.push_back(Spawn([=] {
      for (int i = 0; i < kIters; ++i) {
        rw_enter(&rw, RW_WRITER);
        if (writer_count.fetch_add(1) != 0 || reader_count.load() != 0) {
          violation.store(true);
        }
        writer_count.fetch_sub(1);
        rw_exit(&rw);
        if (i % 32 == 0) {
          thread_yield();
        }
      }
    }));
  }
  for (thread_id_t id : ids) {
    EXPECT_TRUE(Join(id));
  }
  EXPECT_FALSE(violation.load());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndMixes, RwlockPropertyTest,
    ::testing::Combine(::testing::Values(0, THREAD_SYNC_SHARED),
                       ::testing::Values(1, 4), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "local" : "shared") + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace sunmt
