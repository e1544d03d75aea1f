// Thread stacks.
//
// Per the paper's thread_create() contract, a stack is either supplied by the caller
// (stack_addr/stack_size — so language run-times can manage their own memory) or
// allocated by the package. Package stacks are mmap'ed with an inaccessible guard
// page below the usable area so overflow faults instead of corrupting the heap, and
// default-size stacks are cached on a free list — the paper's Figure 5 measures
// creation "using a default stack that is cached by the threads package".

#ifndef SUNMT_SRC_ARCH_STACK_H_
#define SUNMT_SRC_ARCH_STACK_H_

#include <cstddef>
#include <cstdint>

#include "src/util/object_cache.h"

namespace sunmt {

class Stack {
 public:
  // Default usable size for package-allocated stacks.
  static constexpr size_t kDefaultSize = 256 * 1024;

  Stack() = default;

  // Allocates a guard-paged stack with at least `usable_size` usable bytes
  // (rounded up to the page size). Panics on out-of-memory.
  static Stack AllocateOwned(size_t usable_size);

  // Wraps caller-provided memory; never freed by the package.
  static Stack WrapUnowned(void* base, size_t size);

  Stack(Stack&& other) noexcept { *this = static_cast<Stack&&>(other); }
  Stack& operator=(Stack&& other) noexcept;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Release(); }

  // Unmaps owned memory (no-op for unowned/empty stacks).
  void Release();

  void* base() const { return base_; }
  size_t size() const { return size_; }
  bool owned() const { return owned_; }
  bool valid() const { return base_ != nullptr; }

 private:
  friend class StackCache;

  Stack(void* base, size_t size, void* map_base, size_t map_size, bool owned)
      : base_(base), size_(size), map_base_(map_base), map_size_(map_size), owned_(owned) {}

  // Clears ownership without unmapping; used when the cache adopts the mapping.
  void Disown() { owned_ = false; }

  void* base_ = nullptr;     // lowest usable address
  size_t size_ = 0;          // usable bytes
  void* map_base_ = nullptr; // mmap region including guard page
  size_t map_size_ = 0;
  bool owned_ = false;
};

// Process-wide cache of default-size stacks (each carrying the carved TCB+TLS
// region at its top, so a cache hit re-creates a thread without touching new
// memory). Two-level, magazine style: every kernel thread (i.e. every LWP)
// owns a small thread-local magazine; a locked global depot backs all
// magazines and is touched only in batches of kRefillBatch, so steady-state
// Acquire/Recycle never takes a shared lock. Thread-safe.
//
// The magazine machinery itself is the shared ObjectCache template
// (src/util/object_cache.h); this class is the stack-shaped facade over it.
// Fork repair rides the common path: ObjectCacheResetAfterForkAll() (called
// from Runtime::ResetAfterFork) rebuilds this cache along with every other
// registered object cache, and its counters print as the "stack" OBJCACHE
// line in FormatProcessState().
class StackCache {
 public:
  // Depot capacity (global, shared) and per-LWP magazine capacity. A magazine
  // round-trips to the depot once per kRefillBatch create/exits.
  static constexpr size_t kDepotCapacity = 256;
  static constexpr size_t kMagazineCapacity = 16;
  static constexpr size_t kRefillBatch = 8;

  // Returns a stack with kDefaultSize usable bytes, reusing a cached one if possible.
  static Stack Acquire();

  // Returns a default-size owned stack to the cache (or frees it if full / wrong size).
  static void Recycle(Stack stack);

  // Number of stacks currently cached: depot + every live magazine (for tests).
  static size_t CachedCount();

  // Frees all cached stacks, including entries sitting in other LWPs'
  // magazines (for leak-sensitive tests).
  static void Drain();

  // The stack cache's effectiveness counters (a miss is a fresh mmap).
  static ObjectCacheStats Snapshot();
};

}  // namespace sunmt

#endif  // SUNMT_SRC_ARCH_STACK_H_
