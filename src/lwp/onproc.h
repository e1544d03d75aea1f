// On-processor (ON-PROC) table: the one record of which thread each LWP runs.
//
// An LWP runs a thread by "assuming the identity of the thread". Each LWP owns
// one slot for its whole lifetime, and the dispatcher publishes there the id
// of the thread it runs (0 while the LWP is in its dispatch loop or parked).
// Readers on other kernel threads use the slot instead of any TCB or LWP
// pointer: owner-aware adaptive mutexes ("Basic Lock Algorithms in Lightweight
// Thread Environments", PAPERS.md) spin only while the holder is published
// ON-PROC; introspection reports each LWP's thread and each thread's LWP; the
// CPU-limit check picks its victim from the busiest LWP's slot. A lock holder
// encodes (slot, thread id) into a 64-bit token at acquire time; a spinner
// decodes the slot and compares the published id. The table is preallocated
// global memory that outlives every LWP and TCB, so a stale read (holder
// migrated, exited, slot reused) costs accuracy, never memory safety: a
// spinner sees a conservative "not running" and blocks.

#ifndef SUNMT_SRC_LWP_ONPROC_H_
#define SUNMT_SRC_LWP_ONPROC_H_

#include <atomic>
#include <cstdint>

namespace sunmt {
namespace onproc {

// Enough for the default pool cap (max(64, 4*CPUs)) plus bound/adopted LWPs.
// If a pathological workload exhausts slots, the overflow LWPs get slot -1:
// they run no thread as far as observers can tell, and their holders publish
// token 0, so spinners fall back to the blind bounded spin (correct, just less
// informed).
inline constexpr int kSlots = 1024;

// Token layout: (slot+1) in the high 16 bits, thread id in the low 48. Token 0
// means "owner unknown" (no slot, or no thread published on it).
inline constexpr uint64_t kIdMask = (uint64_t{1} << 48) - 1;

namespace internal {
extern std::atomic<uint64_t> g_onproc[kSlots];
}

// Slot lifetime, called by the Lwp constructor/destructor. AllocSlot may
// return -1 when the table is full.
int AllocSlot();
void FreeSlot(int slot);

// fork1() child-side reset: frees every slot and clears what each publishes.
// The parent's LWPs do not exist in the child, and the allocator's lock may
// have been copied held by a kernel thread constructing or destroying one.
void ResetAfterFork();

// Publishes the thread currently executing on `slot`'s LWP (0 = none).
// Called by the dispatcher around every thread run segment.
inline void Publish(int slot, uint64_t thread_id) {
  if (slot >= 0) {
    internal::g_onproc[slot].store(thread_id & kIdMask, std::memory_order_release);
  }
}

// The id of the thread published on `slot`: 0 while its LWP runs none, and
// for an LWP that got no slot (-1). Advisory from any other kernel thread.
inline uint64_t Running(int slot) {
  return slot >= 0 ? internal::g_onproc[slot].load(std::memory_order_relaxed) : 0;
}

// Token a lock holder publishes into the lock word's side slot at acquire:
// its own LWP's slot and the id published there.
inline uint64_t OwnerToken(int slot) {
  uint64_t thread_id = Running(slot);
  return thread_id == 0 ? 0 : (static_cast<uint64_t>(slot + 1) << 48) | thread_id;
}

// True while the token's thread is still published as ON-PROC on the LWP it
// held the lock from. Advisory: may be stale by the time the caller acts.
inline bool TokenRunning(uint64_t token) {
  int slot = static_cast<int>(token >> 48) - 1;
  if (slot < 0 || slot >= kSlots) {
    return false;
  }
  return internal::g_onproc[slot].load(std::memory_order_relaxed) ==
         (token & kIdMask);
}

}  // namespace onproc
}  // namespace sunmt

#endif  // SUNMT_SRC_LWP_ONPROC_H_
