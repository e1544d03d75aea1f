#include "src/lwp/onproc.h"

#include <new>

#include "src/util/spinlock.h"

namespace sunmt {
namespace onproc {

namespace internal {
std::atomic<uint64_t> g_onproc[kSlots];
}  // namespace internal

namespace {

// Slot allocator: a bitmap under a lock. Cold path — once per LWP lifetime.
struct SlotTable {
  SpinLock lock;
  uint64_t used[kSlots / 64] = {};
};

SlotTable& Table() {
  static SlotTable* table = new SlotTable;  // leaked: LWPs outlive main()
  return *table;
}

}  // namespace

int AllocSlot() {
  SlotTable& t = Table();
  SpinLockGuard guard(t.lock);
  for (int word = 0; word < kSlots / 64; ++word) {
    if (t.used[word] == ~uint64_t{0}) {
      continue;
    }
    int bit = __builtin_ctzll(~t.used[word]);
    t.used[word] |= uint64_t{1} << bit;
    int slot = word * 64 + bit;
    internal::g_onproc[slot].store(0, std::memory_order_relaxed);
    return slot;
  }
  return -1;
}

void FreeSlot(int slot) {
  if (slot < 0) {
    return;
  }
  internal::g_onproc[slot].store(0, std::memory_order_release);
  SlotTable& t = Table();
  SpinLockGuard guard(t.lock);
  t.used[slot / 64] &= ~(uint64_t{1} << (slot % 64));
}

void ResetAfterFork() {
  new (&Table()) SlotTable();
  for (std::atomic<uint64_t>& published : internal::g_onproc) {
    published.store(0, std::memory_order_relaxed);
  }
}

}  // namespace onproc
}  // namespace sunmt
