#include "src/core/tls_arena.h"

#include <atomic>

#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

struct ArenaState {
  SpinLock lock;
  size_t cursor = 0;
  std::atomic<bool> frozen{false};
  // Published (release) together with frozen=true so the FrozenSize fast path
  // — on every thread_create — is one acquire load instead of a lock round trip.
  size_t frozen_size = 0;
};

ArenaState& State() {
  static ArenaState state;
  return state;
}

}  // namespace

size_t TlsArena::Register(size_t size, size_t align) {
  SUNMT_CHECK(align != 0 && (align & (align - 1)) == 0);
  ArenaState& s = State();
  SpinLockGuard guard(s.lock);
  SUNMT_CHECK(!s.frozen.load(std::memory_order_relaxed));
  size_t offset = (s.cursor + align - 1) & ~(align - 1);
  s.cursor = offset + size;
  return offset;
}

size_t TlsArena::FrozenSize() {
  ArenaState& s = State();
  if (s.frozen.load(std::memory_order_acquire)) {
    return s.frozen_size;
  }
  SpinLockGuard guard(s.lock);
  if (!s.frozen.load(std::memory_order_relaxed)) {
    // Round to 16 so the stack carve below the block stays aligned.
    s.frozen_size = (s.cursor + 15) & ~size_t{15};
    s.frozen.store(true, std::memory_order_release);
  }
  return s.frozen_size;
}

bool TlsArena::IsFrozen() { return State().frozen.load(std::memory_order_acquire); }

void TlsArena::ResetAfterFork() { State().lock.Reset(); }

void TlsArena::ResetForTest() {
  ArenaState& s = State();
  SpinLockGuard guard(s.lock);
  s.cursor = 0;
  s.frozen.store(false, std::memory_order_relaxed);
}

}  // namespace sunmt
