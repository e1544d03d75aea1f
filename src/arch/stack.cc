#include "src/arch/stack.h"

#include <errno.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include "src/util/check.h"

namespace sunmt {
namespace {

// A thread that is blocked (or never finishes) keeps its live pointers in its
// saved context, on a stack the leak checker does not know is one: it scans
// only the kernel threads' own stacks. Each owned stack is a root region for
// as long as it is mapped.
void UnmapStack(void* map_base, size_t map_size, void* base, size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __lsan_unregister_root_region(base, size);
#else
  (void)base;
  (void)size;
#endif
  SUNMT_CHECK(munmap(map_base, map_size) == 0);
}

size_t PageSize() {
  static const size_t kPageSize = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPageSize;
}

size_t RoundUpToPage(size_t n) {
  size_t p = PageSize();
  return (n + p - 1) / p * p;
}

// Raw mapping record; reconstructed into a Stack object on acquire.
struct Entry {
  void* map_base;
  size_t map_size;
  void* base;
  size_t size;
};

// The magazine/depot machinery lives in the shared ObjectCache template (see
// src/util/object_cache.h) — this file only supplies the mapping record and
// how to dispose of one that falls out of the cache.
struct StackCacheTraits {
  static constexpr const char* kName = "stack";
  static constexpr size_t kMagazineCapacity = StackCache::kMagazineCapacity;
  static constexpr size_t kDepotCapacity = StackCache::kDepotCapacity;
  static constexpr size_t kRefillBatch = StackCache::kRefillBatch;
  static void Evict(Entry& e) { UnmapStack(e.map_base, e.map_size, e.base, e.size); }
};

using Impl = ObjectCache<Entry, StackCacheTraits>;

}  // namespace

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    Release();
    base_ = other.base_;
    size_ = other.size_;
    map_base_ = other.map_base_;
    map_size_ = other.map_size_;
    owned_ = other.owned_;
    other.base_ = nullptr;
    other.size_ = 0;
    other.map_base_ = nullptr;
    other.map_size_ = 0;
    other.owned_ = false;
  }
  return *this;
}

Stack Stack::AllocateOwned(size_t usable_size) {
  size_t usable = RoundUpToPage(usable_size);
  size_t guard = PageSize();
  size_t total = usable + guard;
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) {
    SUNMT_PANIC_ERRNO("stack mmap failed", errno);
  }
  // Guard page at the low end: stacks grow down into it on overflow.
  if (mprotect(map, guard, PROT_NONE) != 0) {
    SUNMT_PANIC_ERRNO("stack guard mprotect failed", errno);
  }
  void* base = static_cast<char*>(map) + guard;
#if defined(__SANITIZE_ADDRESS__)
  __lsan_register_root_region(base, usable);
#endif
  return Stack(base, usable, map, total, /*owned=*/true);
}

Stack Stack::WrapUnowned(void* base, size_t size) {
  SUNMT_CHECK(base != nullptr);
  SUNMT_CHECK(size > 0);
  return Stack(base, size, nullptr, 0, /*owned=*/false);
}

void Stack::Release() {
  if (owned_ && map_base_ != nullptr) {
    UnmapStack(map_base_, map_size_, base_, size_);
  }
  base_ = nullptr;
  size_ = 0;
  map_base_ = nullptr;
  map_size_ = 0;
  owned_ = false;
}

Stack StackCache::Acquire() {
  Entry e;
  if (Impl::Acquire(&e)) {
    return Stack(e.base, e.size, e.map_base, e.map_size, /*owned=*/true);
  }
  return Stack::AllocateOwned(Stack::kDefaultSize);
}

void StackCache::Recycle(Stack stack) {
  if (!stack.owned() || stack.size() != RoundUpToPage(Stack::kDefaultSize)) {
    return;  // destructor frees it
  }
  // Steal the mapping from the Stack object so its destructor doesn't unmap it.
  Entry e;
  e.base = stack.base();
  e.size = stack.size();
  e.map_base = stack.map_base_;
  e.map_size = stack.map_size_;
  stack.Disown();
  Impl::Release(e);
}

size_t StackCache::CachedCount() { return Impl::CachedCount(); }

void StackCache::Drain() { Impl::Drain(); }

ObjectCacheStats StackCache::Snapshot() { return Impl::Snapshot(); }

}  // namespace sunmt
