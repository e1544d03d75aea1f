// Per-LWP object cache: the Bonwick-magazine pattern, reusable.
//
// The threads package must not call malloc() on its hot paths (the paper's
// explicit design goal, see intrusive_list.h). PR 5 proved the cure on thread
// stacks: every kernel thread (i.e. every LWP) owns a small thread-local
// *magazine*; a locked global *depot* backs all magazines and is touched only
// in batches, so steady-state acquire/release costs one uncontended per-owner
// lock and zero shared-lock round trips. This header extracts that machinery
// into one implementation so every per-operation allocation — HTTP
// connection args, cxx::Thread closures, the stacks themselves — shares a
// single protocol, a single fork-repair path, and a single stats format (the
// OBJCACHE lines in FormatProcessState()). (An object whose lifetime is one
// call needs none of this: a timed wait keeps its timeout context on the
// waiter's stack, src/sync/timed_wait.h.)
//
// Two layers:
//
//   * `ObjectCache<T, Traits>` caches *values* of a trivially copyable T
//     (e.g. a stack-mapping record, or a raw block pointer). Acquire() returns
//     false on a cold cache — the caller allocates, and the miss is counted
//     both per cache and in the process-wide fallback-allocation counter that
//     the zero-alloc assertion tests watch. Release() stores the value back,
//     evicting the oldest batch through Traits::Evict when both tiers fill.
//   * `CachedAlloc<T, Tag>` is the `new`/`delete` drop-in built on top: it
//     caches raw heap blocks of sizeof(T) and runs the constructor/destructor
//     per New/Delete, so only the allocation itself is recycled.
//
// Every instantiation registers itself (lock-free, on first use) with a global
// cache list so introspection, thread-exit magazine retirement, and the fork1()
// child repair find it without any per-cache wiring. The repair,
// ObjectCacheResetAfterForkAll(), runs on the child's only kernel thread: it
// rebuilds each depot/registry empty and empties and re-registers that
// thread's magazine in place, abandoning parent-generation entries instead of
// double-freeing them. Every other magazine belonged to a kernel thread the
// child does not have.
//
// Traits contract:
//   static constexpr const char* kName;          // stats/introspection name
//   static constexpr size_t kMagazineCapacity;   // per-LWP magazine slots
//   static constexpr size_t kDepotCapacity;      // shared depot slots
//   static constexpr size_t kRefillBatch;        // entries per depot trip
//   static void Evict(T& v);                     // dispose an overflow value
// T must be trivially copyable and default constructible (values move between
// magazine and depot by plain copy, under spinlocks).

#ifndef SUNMT_SRC_UTIL_OBJECT_CACHE_H_
#define SUNMT_SRC_UTIL_OBJECT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "src/inject/inject.h"
#include "src/util/intrusive_list.h"
#include "src/util/spinlock.h"

namespace sunmt {

// Aggregate counters for one cache (monotonic except the depth/count gauges),
// exported as an OBJCACHE line in FormatProcessState().
struct ObjectCacheStats {
  const char* name = nullptr;
  uint64_t hits = 0;       // Acquire served from a magazine (incl. post-refill)
  uint64_t misses = 0;     // Acquire fell through to the caller's allocator
  uint64_t refills = 0;    // batch refills, depot -> magazine
  uint64_t flushes = 0;    // batch flushes, magazine -> depot
  uint64_t evictions = 0;  // values disposed via Traits::Evict (both tiers full)
  size_t depot_depth = 0;      // entries in the depot right now
  size_t magazine_count = 0;   // live per-LWP magazines
  size_t magazine_depth = 0;   // entries across all magazines right now
};

namespace objcache_internal {

// Control block, one per ObjectCache instantiation, pushed onto a lock-free
// global list at first use. Lock-free on purpose: the fork1() child repair
// walks this list, and a registration lock could have been copied held.
struct CacheNode {
  const char* name;
  void (*reset_after_fork)();
  ObjectCacheStats (*snapshot)();
  void (*retire_thread)();
  CacheNode* next;
};

void Register(CacheNode* node);
CacheNode* Head();

// Arms the calling kernel thread's exit hook (a process-wide pthread TSD
// destructor) so every cache's per-thread magazine is flushed, deregistered
// and folded into the retired counters when the thread exits. The caches use
// this instead of a `thread_local` destructor on purpose: a dynamically
// initialized thread_local carries a compiler-emitted init-guard byte and a
// __cxa_thread_atexit registration, both written without synchronization —
// which two user threads (fibers, distinct threads to TSan) multiplexed on
// the same LWP then touch back to back. pthread TSD keeps thread-exit
// cleanup while every magazine access stays atomic or lock-guarded.
void ArmThreadRetire();

// Process-wide count of cache misses that fell back to a real allocation on a
// hot path. The zero-alloc assertion tests snapshot this around steady-state
// churn: a warm cache must not let it move.
extern std::atomic<uint64_t> g_fallback_allocs;

}  // namespace objcache_internal

// fork1() child repair (Runtime::ResetAfterFork): rebuilds every registered
// cache's depot and magazine registry empty (the child's copies are reachable
// only here; abandoning them is safe), and empties and re-registers the
// calling thread's magazine.
void ObjectCacheResetAfterForkAll();

// Snapshots up to `max` registered caches into `out`; returns how many were
// written. Order is reverse registration order (most recently created first).
size_t ObjectCacheSnapshotAll(ObjectCacheStats* out, size_t max);

// Total hot-path fallback allocations across all caches (see g_fallback_allocs).
uint64_t ObjectCacheFallbackAllocs();

template <typename T, typename Traits>
class ObjectCache {
  static_assert(std::is_trivially_copyable_v<T>,
                "cached values move between tiers by plain copy");
  static_assert(Traits::kRefillBatch <= Traits::kMagazineCapacity,
                "a refill must fit in an empty magazine");
  static_assert(Traits::kRefillBatch > 0 && Traits::kDepotCapacity > 0, "");

 public:
  static constexpr size_t kMagazineCapacity = Traits::kMagazineCapacity;
  static constexpr size_t kDepotCapacity = Traits::kDepotCapacity;
  static constexpr size_t kRefillBatch = Traits::kRefillBatch;

  // Pops a cached value into *out. False means the cache is cold here — the
  // caller allocates, and the miss is counted (per cache + process fallback).
  static bool Acquire(T* out) {
    EnsureRegistered();
    Magazine& m = Local();
    m.lock.Lock();
    if (m.count == 0) {
      // Empty magazine: one depot trip buys up to kRefillBatch future hits.
      inject::Perturb(inject::kObjectCache);
      Depot& d = GetDepot();
      SpinLockGuard guard(d.lock);
      size_t take = d.count < kRefillBatch ? d.count : kRefillBatch;
      for (size_t i = 0; i < take; ++i) {
        m.entries[m.count++] = d.entries[--d.count];
      }
      if (take > 0) {
        m.refills++;
      }
    }
    if (m.count > 0) {
      *out = m.entries[--m.count];
      m.hits++;
      m.lock.Unlock();
      return true;
    }
    m.lock.Unlock();
    misses_.fetch_add(1, std::memory_order_relaxed);
    objcache_internal::g_fallback_allocs.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Stores a value back into the calling thread's magazine, flushing the
  // oldest kRefillBatch toward the depot when full (overflow is evicted).
  static void Release(T value) {
    EnsureRegistered();
    Magazine& m = Local();
    SpinLockGuard guard(m.lock);
    if (m.count == kMagazineCapacity) {
      FlushBatchLocked(m, kRefillBatch);
    }
    m.entries[m.count++] = value;
  }

  // Values currently cached: depot + every live magazine (for tests).
  static size_t CachedCount() {
    size_t total;
    {
      Depot& d = GetDepot();
      SpinLockGuard guard(d.lock);
      total = d.count;
    }
    Registry& r = GetRegistry();
    SpinLockGuard guard(r.lock);
    r.magazines.ForEach([&](Magazine* m) {
      SpinLockGuard mguard(m->lock);
      total += m->count;
    });
    return total;
  }

  // Evicts everything cached, including entries sitting in other threads'
  // magazines. Entries are evicted outside the magazine locks.
  static void Drain() {
    // Pull every magazine's entries into the depot first (one place to free
    // from); FlushBatchLocked evicts depot overflow directly.
    {
      Registry& r = GetRegistry();
      SpinLockGuard guard(r.lock);
      r.magazines.ForEach([&](Magazine* m) {
        SpinLockGuard mguard(m->lock);
        FlushBatchLocked(*m, m->count);
      });
    }
    T drained[kDepotCapacity];
    size_t drained_count;
    {
      Depot& d = GetDepot();
      SpinLockGuard guard(d.lock);
      drained_count = d.count;
      for (size_t i = 0; i < drained_count; ++i) {
        drained[i] = d.entries[i];
      }
      d.count = 0;
    }
    evictions_.fetch_add(drained_count, std::memory_order_relaxed);
    for (size_t i = 0; i < drained_count; ++i) {
      Traits::Evict(drained[i]);
    }
  }

  static ObjectCacheStats Snapshot() {
    ObjectCacheStats s;
    s.name = Traits::kName;
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    {
      Depot& d = GetDepot();
      SpinLockGuard guard(d.lock);
      s.depot_depth = d.count;
    }
    Registry& r = GetRegistry();
    SpinLockGuard guard(r.lock);
    s.hits = r.retired_hits;
    s.refills = r.retired_refills;
    s.flushes = r.retired_flushes;
    r.magazines.ForEach([&](Magazine* m) {
      SpinLockGuard mguard(m->lock);
      s.hits += m->hits;
      s.refills += m->refills;
      s.flushes += m->flushes;
      s.magazine_depth += m->count;
      s.magazine_count++;
    });
    return s;
  }

 private:
  // The depot: the shared, locked tier. Touched only on magazine refill/flush
  // (one lock trip per kRefillBatch operations) and by the cold maintenance
  // entry points (Drain/Snapshot/fork repair).
  struct Depot {
    SpinLock lock;
    size_t count = 0;
    T entries[kDepotCapacity];
  };

  // Per-kernel-thread magazine, heap-allocated and published through the
  // thread-local atomic pointer below. The lock is almost always uncontended —
  // only the owning thread takes it on the hot path; Drain/Snapshot/
  // CachedCount take it cross-thread — so steady state costs an uncontended
  // CAS, not a shared-lock round trip. Thread-exit flush + counter folding
  // runs through RetireThreadMagazine (see ArmThreadRetire), not a destructor:
  // the magazine must not be a dynamically initialized thread_local, because
  // its init-guard byte and ctor writes would be unsynchronized state shared
  // by every user thread the owning LWP multiplexes.
  struct Magazine {
    SpinLock lock;
    size_t count = 0;
    uint64_t hits = 0;
    uint64_t refills = 0;
    uint64_t flushes = 0;
    T entries[kMagazineCapacity];
    ListNode registry_node;
  };

  // Registry of live magazines so the cold entry points can reach entries
  // cached in other threads' magazines. Counters of destroyed magazines are
  // folded into the retired_* accumulators so Snapshot() stays monotonic.
  struct Registry {
    SpinLock lock;
    IntrusiveList<Magazine, &Magazine::registry_node> magazines;
    uint64_t retired_hits = 0;
    uint64_t retired_refills = 0;
    uint64_t retired_flushes = 0;
  };

  static Depot& GetDepot() {
    static Depot* depot = new Depot;  // leaked: outlives all threads
    return *depot;
  }

  static Registry& GetRegistry() {
    static Registry* reg = new Registry;  // leaked
    return *reg;
  }

  // The calling kernel thread's magazine, created + registered on first use.
  // Registration is the only path where the owner touches the registry lock,
  // and never while holding its own magazine lock. The thread_local itself is
  // a constant-initialized atomic pointer: no init-guard byte, no
  // __cxa_thread_atexit — every access a user thread (fiber) makes through
  // here is an atomic op or happens under a lock, so two fibers sharing this
  // LWP's TLS never touch unsynchronized state. The release/acquire pair
  // orders the heap magazine's construction before any other fiber's first
  // use of it.
  static Magazine& Local() {
    Magazine* m = t_magazine_.load(std::memory_order_acquire);
    if (__builtin_expect(m == nullptr, 0)) {
      m = new Magazine();
      {
        Registry& r = GetRegistry();
        SpinLockGuard guard(r.lock);
        r.magazines.PushBack(m);
      }
      objcache_internal::ArmThreadRetire();
      t_magazine_.store(m, std::memory_order_release);
    }
    return *m;
  }

  // Thread-exit path, reached through the registered node by the pthread TSD
  // destructor ArmThreadRetire installed: flush the exiting thread's magazine
  // to the depot, fold its counters into the retired accumulators (keeping
  // Snapshot() monotonic), and free it.
  static void RetireThreadMagazine() {
    Magazine* m = t_magazine_.load(std::memory_order_acquire);
    if (m == nullptr) {
      return;
    }
    t_magazine_.store(nullptr, std::memory_order_release);
    {  // every guard drops before the delete below
      {
        SpinLockGuard guard(m->lock);
        FlushBatchLocked(*m, m->count);
      }
      Registry& r = GetRegistry();
      SpinLockGuard guard(r.lock);
      r.magazines.TryRemove(m);
      // Registry-then-magazine, the same order Drain/Snapshot use.
      SpinLockGuard mguard(m->lock);
      r.retired_hits += m->hits;
      r.retired_refills += m->refills;
      r.retired_flushes += m->flushes;
    }
    delete m;
  }

  // Flushes the oldest `n` entries of `m` (owner lock held) toward the depot;
  // entries that do not fit are evicted after both locks drop.
  static void FlushBatchLocked(Magazine& m, size_t n) {
    T overflow[kMagazineCapacity];
    size_t overflow_count = 0;
    if (n > m.count) {
      n = m.count;
    }
    if (n == 0) {
      return;
    }
    inject::Perturb(inject::kObjectCache);
    Depot& d = GetDepot();
    {
      SpinLockGuard guard(d.lock);
      for (size_t i = 0; i < n; ++i) {
        if (d.count < kDepotCapacity) {
          d.entries[d.count++] = m.entries[i];
        } else {
          overflow[overflow_count++] = m.entries[i];
        }
      }
    }
    // Keep the hottest (most recently released) entries: shift survivors down.
    for (size_t i = n; i < m.count; ++i) {
      m.entries[i - n] = m.entries[i];
    }
    m.count -= n;
    m.flushes++;
    evictions_.fetch_add(overflow_count, std::memory_order_relaxed);
    for (size_t i = 0; i < overflow_count; ++i) {
      Traits::Evict(overflow[i]);
    }
  }

  // fork1() child repair for this cache, reached through the registered node
  // on the child's only kernel thread. No locks taken: the parent may have
  // forked with any of them held. That thread's magazine is the only one left:
  // its entries and registry link belong to the parent's generation.
  static void ResetAfterFork() {
    Depot& d = GetDepot();
    d.lock.Reset();
    d.count = 0;
    Registry& r = GetRegistry();
    new (&r) Registry();
    Magazine* m = t_magazine_.load(std::memory_order_relaxed);
    if (m != nullptr) {
      m->lock.Reset();
      m->count = 0;
      m->registry_node = ListNode{};
      r.magazines.PushBack(m);
    }
  }

  static void EnsureRegistered() {
    static const bool once = [] {
      static objcache_internal::CacheNode node{
          Traits::kName, &ResetAfterFork, &Snapshot, &RetireThreadMagazine,
          nullptr};
      objcache_internal::Register(&node);
      return true;
    }();
    (void)once;
  }

  // Misses/evictions happen outside any cache lock, so plain atomics.
  inline static std::atomic<uint64_t> misses_{0};
  inline static std::atomic<uint64_t> evictions_{0};

  // This kernel thread's magazine. Constant-initialized (enforced by
  // constinit): the compiler emits a direct TLS access with no guard byte and
  // no thread-atexit registration — see the Local() comment for why that
  // matters when user threads multiplex on LWPs.
  inline static constinit thread_local std::atomic<Magazine*> t_magazine_{
      nullptr};
};

// `new T(...)` / `delete p` drop-in for fixed-size hot-path objects. The
// cached unit is raw storage of sizeof(T); the constructor/destructor run per
// New/Delete, only the underlying allocation is recycled. Tag supplies the
// cache name (distinct tags get distinct caches even at equal block sizes):
//
//   struct ConnArgCacheTag { static constexpr const char* kName = "http.conn_arg"; };
//   auto* arg = CachedAlloc<ConnArg, ConnArgCacheTag>::New(server, fd, id);
//   ...
//   CachedAlloc<ConnArg, ConnArgCacheTag>::Delete(arg);
template <typename T, typename Tag>
class CachedAlloc {
  struct BlockTraits {
    static constexpr const char* kName = Tag::kName;
    static constexpr size_t kMagazineCapacity = 16;
    static constexpr size_t kDepotCapacity = 256;
    static constexpr size_t kRefillBatch = 8;
    static void Evict(void*& p) { ::operator delete(p); }
  };

 public:
  using Cache = ObjectCache<void*, BlockTraits>;

  template <typename... Args>
  static T* New(Args&&... args) {
    void* p = nullptr;
    if (!Cache::Acquire(&p)) {
      p = ::operator new(sizeof(T));
    }
    // Brace-init so aggregates (e.g. the HTTP ConnArg) work unchanged.
    return ::new (p) T{std::forward<Args>(args)...};
  }

  static void Delete(T* obj) {
    obj->~T();
    Cache::Release(static_cast<void*>(obj));
  }
};

}  // namespace sunmt

#endif  // SUNMT_SRC_UTIL_OBJECT_CACHE_H_
