#include "src/util/object_cache.h"

#include <pthread.h>

namespace sunmt {
namespace objcache_internal {

std::atomic<uint64_t> g_fallback_allocs{0};

namespace {

// Lock-free singly-linked list of every instantiated cache. Push-once per
// cache (guarded by the instantiation's function-local static), traversed by
// introspection and the fork1() child repair — which must not depend on a
// registration lock the parent could have forked while holding.
std::atomic<CacheNode*> g_head{nullptr};

// One process-wide TSD slot whose destructor retires the exiting kernel
// thread's magazine in every registered cache. A cache re-arms the slot if a
// later TSD destructor allocates again, so pthread's destructor iteration
// picks the new magazine up too.
pthread_key_t g_retire_key;
pthread_once_t g_retire_once = PTHREAD_ONCE_INIT;

void RetireThreadMagazines(void* /*unused*/) {
  for (CacheNode* n = Head(); n != nullptr; n = n->next) {
    n->retire_thread();
  }
}

void MakeRetireKey() {
  pthread_key_create(&g_retire_key, &RetireThreadMagazines);
}

}  // namespace

void ArmThreadRetire() {
  pthread_once(&g_retire_once, &MakeRetireKey);
  pthread_setspecific(g_retire_key, reinterpret_cast<void*>(1));
}

void Register(CacheNode* node) {
  CacheNode* head = g_head.load(std::memory_order_acquire);
  do {
    node->next = head;
  } while (!g_head.compare_exchange_weak(head, node, std::memory_order_release,
                                         std::memory_order_acquire));
}

CacheNode* Head() { return g_head.load(std::memory_order_acquire); }

}  // namespace objcache_internal

void ObjectCacheResetAfterForkAll() {
  for (auto* n = objcache_internal::Head(); n != nullptr; n = n->next) {
    n->reset_after_fork();
  }
}

size_t ObjectCacheSnapshotAll(ObjectCacheStats* out, size_t max) {
  size_t count = 0;
  for (auto* n = objcache_internal::Head(); n != nullptr && count < max;
       n = n->next) {
    out[count++] = n->snapshot();
  }
  return count;
}

uint64_t ObjectCacheFallbackAllocs() {
  return objcache_internal::g_fallback_allocs.load(std::memory_order_relaxed);
}

}  // namespace sunmt
