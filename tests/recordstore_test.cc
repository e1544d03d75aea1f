// Record store tests: geometry, persistence, per-record locking within and
// across processes, and the shared allocation bitmap.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/core/thread.h"
#include "src/ipc/fork1.h"
#include "src/recordstore/record_store.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;
using sunmt_test::WaitForChild;

class RecordStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snprintf(path_, sizeof(path_), "/tmp/sunmt_rs_%d_%s", getpid(),
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    RecordStore::Unlink(path_);
  }
  void TearDown() override { RecordStore::Unlink(path_); }

  char path_[128];
};

TEST_F(RecordStoreTest, CreateValidatesArguments) {
  EXPECT_FALSE(RecordStore::Create(path_, 0, 10).valid());
  EXPECT_FALSE(RecordStore::Create(path_, 64, 0).valid());
  EXPECT_TRUE(RecordStore::Create(path_, 64, 10).valid());
}

TEST_F(RecordStoreTest, OpenRejectsGarbage) {
  EXPECT_FALSE(RecordStore::Open("/tmp/sunmt_rs_does_not_exist").valid());
  // A file that exists but is not a store:
  FILE* f = fopen(path_, "w");
  fputs("definitely not a record store, but long enough to map a header .......",
        f);
  fclose(f);
  EXPECT_FALSE(RecordStore::Open(path_).valid());
}

TEST_F(RecordStoreTest, GeometryAndPayloadRoundTrip) {
  RecordStore store = RecordStore::Create(path_, 128, 16);
  ASSERT_TRUE(store.valid());
  EXPECT_EQ(store.capacity(), 16u);
  EXPECT_EQ(store.record_size(), 128u);
  for (uint32_t i = 0; i < 16; ++i) {
    store.WithRecord(i, [i](void* payload) {
      snprintf(static_cast<char*>(payload), 128, "record-%u", i);
    });
  }
  for (uint32_t i = 0; i < 16; ++i) {
    char expect[32];
    snprintf(expect, sizeof(expect), "record-%u", i);
    EXPECT_STREQ(static_cast<char*>(store.UnsafeAt(i)), expect);
  }
}

TEST_F(RecordStoreTest, PersistsAcrossReopen) {
  {
    RecordStore store = RecordStore::Create(path_, 64, 4);
    ASSERT_TRUE(store.valid());
    store.WithRecord(2, [](void* p) { memcpy(p, "persistent", 11); });
    EXPECT_GE(store.Allocate(), 0);
  }  // unmapped; "lifetimes beyond that of the creating process"
  RecordStore again = RecordStore::Open(path_);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.capacity(), 4u);
  EXPECT_STREQ(static_cast<char*>(again.UnsafeAt(2)), "persistent");
  EXPECT_EQ(again.AllocatedCount(), 1u);
}

TEST_F(RecordStoreTest, TryLockReflectsHolders) {
  RecordStore store = RecordStore::Create(path_, 32, 4);
  void* p = store.TryLock(1);
  ASSERT_NE(p, nullptr);
  static std::atomic<void*> other_result;
  other_result.store(&other_result);  // sentinel
  thread_id_t prober = Spawn([&] { other_result.store(store.TryLock(1)); });
  EXPECT_TRUE(Join(prober));
  EXPECT_EQ(other_result.load(), nullptr);  // held here
  store.Unlock(1);
  EXPECT_NE(store.TryLock(1), nullptr);
  store.Unlock(1);
}

TEST_F(RecordStoreTest, AllocateFreeConservation) {
  RecordStore store = RecordStore::Create(path_, 16, 70);  // spans two bitmap words
  std::vector<int64_t> taken;
  for (int i = 0; i < 70; ++i) {
    int64_t idx = store.Allocate();
    ASSERT_GE(idx, 0);
    taken.push_back(idx);
  }
  EXPECT_EQ(store.Allocate(), -1);  // full
  EXPECT_EQ(store.AllocatedCount(), 70u);
  // Indexes are unique.
  std::sort(taken.begin(), taken.end());
  for (size_t i = 1; i < taken.size(); ++i) {
    EXPECT_NE(taken[i - 1], taken[i]);
  }
  for (int64_t idx : taken) {
    store.Free(static_cast<uint32_t>(idx));
  }
  EXPECT_EQ(store.AllocatedCount(), 0u);
  EXPECT_GE(store.Allocate(), 0);  // usable again
}

TEST_F(RecordStoreTest, DoubleFreeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RecordStore store = RecordStore::Create(path_, 16, 4);
  int64_t idx = store.Allocate();
  ASSERT_GE(idx, 0);
  store.Free(static_cast<uint32_t>(idx));
  EXPECT_DEATH(store.Free(static_cast<uint32_t>(idx)), "");
}

TEST_F(RecordStoreTest, RecordLocksExcludeAcrossProcesses) {
  struct Account {
    long balance;
  };
  constexpr uint32_t kAccounts = 8;
  constexpr int kTransfers = 5000;
  RecordStore store = RecordStore::Create(path_, sizeof(Account), kAccounts);
  for (uint32_t i = 0; i < kAccounts; ++i) {
    static_cast<Account*>(store.UnsafeAt(i))->balance = 100;
  }
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  auto worker = [this](unsigned seed) {
    RecordStore view = RecordStore::Open(path_);
    unsigned state = seed;
    for (int i = 0; i < kTransfers; ++i) {
      state = state * 1664525 + 1013904223;
      uint32_t from = state % kAccounts;
      uint32_t to = (from + 1 + (state >> 8) % (kAccounts - 1)) % kAccounts;
      uint32_t first = from < to ? from : to;
      uint32_t second = from < to ? to : from;
      auto* a = static_cast<Account*>(view.Lock(first));
      auto* b = static_cast<Account*>(view.Lock(second));
      auto* src = first == from ? a : b;
      auto* dst = first == from ? b : a;
      src->balance -= 1;
      dst->balance += 1;
      view.Unlock(second);
      view.Unlock(first);
    }
  };
  if (pid == 0) {
    worker(111);
    _exit(0);
  }
  worker(222);
  EXPECT_EQ(WaitForChild(pid), 0);
  long total = 0;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    total += static_cast<Account*>(store.UnsafeAt(i))->balance;
  }
  EXPECT_EQ(total, 100L * kAccounts);
}

TEST_F(RecordStoreTest, CrossProcessAllocation) {
  RecordStore store = RecordStore::Create(path_, 8, 128);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RecordStore view = RecordStore::Open(path_);
    int mine = 0;
    while (view.Allocate() >= 0) {
      ++mine;
    }
    _exit(mine);  // how many this process won
  }
  int mine = 0;
  while (store.Allocate() >= 0) {
    ++mine;
  }
  int theirs = WaitForChild(pid);
  EXPECT_EQ(mine + theirs, 128);  // no slot double-allocated or lost
  EXPECT_EQ(store.AllocatedCount(), 128u);
}

}  // namespace
}  // namespace sunmt
