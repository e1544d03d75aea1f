// Sharded in-memory HTTP response cache.
//
// The read-mostly store behind the server's GET hot path: lookups take one
// shard's readers/writer lock as a reader (concurrent across connections),
// fills take it as a writer. Entries are handed out as shared_ptr so a hit
// releases the lock before the (possibly slow, parked-on-writability) socket
// send, and an eviction never frees bytes a sender still references.
//
// Lock graph, annotated for the runtime lock-order detector (src/debug):
// every shard lock is one "http.cache.shard" class at hierarchy level 1, the
// optional cross-process stats mutex is level 2 — a fill that bumps shared
// statistics while still holding its shard lock climbs strictly upward, which
// lockdep exempts by design. Per-process hit/miss counters are plain atomics
// and take no lock at all.
//
// The shared statistics block is the paper's THREAD_SYNC_SHARED story under
// real load: pre-forked server processes (SO_REUSEPORT siblings) place one
// HttpCacheSharedStats in a SharedArena and every process' cache updates it
// under the same address-free mutex.

#ifndef SUNMT_SRC_HTTP_CACHE_H_
#define SUNMT_SRC_HTTP_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/http/parser.h"
#include "src/sync/sync.h"

namespace sunmt {

// Cross-process cache statistics (stretch: pre-fork mode). Lives in shared
// memory; all-zero bytes are a valid initial state except for the mutex type,
// which InitShared() sets. Address-free: counters + a THREAD_SYNC_SHARED
// mutex word.
struct HttpCacheSharedStats {
  mutex_t lock;  // THREAD_SYNC_SHARED; guards the counters across processes
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;

  // Initializes the block in zeroed shared memory (creator process only).
  static HttpCacheSharedStats* InitShared(void* zeroed_memory);
};

class HttpCache {
 public:
  struct Entry {
    int status = 200;
    std::string content_type;
    std::vector<HttpHeader> extra_headers;
    std::string body;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  // `shards` is rounded up to a power of two; `max_bytes` is the whole-cache
  // body-byte budget, split evenly across shards (FIFO eviction per shard).
  // A shard's budget also covers the few evicted body buffers it keeps for
  // reuse (see Insert).
  explicit HttpCache(int shards = 16, size_t max_bytes = 64 * 1024 * 1024);
  ~HttpCache();

  HttpCache(const HttpCache&) = delete;
  HttpCache& operator=(const HttpCache&) = delete;

  // Returns the entry, or nullptr on miss. Counts a hit/miss.
  std::shared_ptr<const Entry> Lookup(std::string_view key);

  // Inserts (or replaces) under `key`, evicting FIFO if the shard is over
  // budget. Entries larger than a shard's whole budget are not cached.
  // Eviction runs first, and the new body is copied into the buffer of an
  // evicted body that nothing else held, so churn through a full cache
  // recycles the same buffers instead of freeing and allocating on whichever
  // LWP (and malloc arena) happens to insert.
  void Insert(std::string_view key, Entry entry);

  bool Remove(std::string_view key);
  void Clear();

  Stats SnapshotStats() const;

  // Attach cross-process statistics (may be nullptr to detach). The block
  // must outlive the cache.
  void AttachSharedStats(HttpCacheSharedStats* stats) {
    shared_stats_.store(stats, std::memory_order_release);
  }

 private:
  struct Shard {
    mutable rwlock_t lock;  // zero-init is the valid default variant
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
    std::deque<std::string> fifo;  // insertion order, for eviction
    size_t bytes = 0;              // live entries: body + key bytes
    // Buffers of evicted bodies awaiting reuse (at most kMaxSpareBodies);
    // their capacity counts against the budget together with `bytes`.
    std::vector<std::string> spare;
    size_t spare_bytes = 0;
  };

  static constexpr size_t kMaxSpareBodies = 4;

  Shard* ShardFor(std::string_view key);
  // Drops a shard's reference to an evicted or replaced entry, keeping its
  // body buffer as a spare if nothing else holds the entry. Writer lock held.
  static void Retire(Shard* shard, std::shared_ptr<Entry>* slot);
  // Moves `body` into the smallest spare buffer that fits and is at most
  // twice its size, if any; the caller's old buffer is left in *discard.
  // Writer lock held.
  static void TakeSpare(Shard* shard, std::string* body, std::string* discard);
  void NoteShared(uint64_t hit, uint64_t miss, uint64_t insert);

  std::vector<Shard> shards_;
  size_t shard_mask_;
  size_t max_bytes_per_shard_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<HttpCacheSharedStats*> shared_stats_{nullptr};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_HTTP_CACHE_H_
