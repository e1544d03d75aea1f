#include "src/http/cache.h"

#include <functional>
#include <new>

namespace sunmt {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

HttpCacheSharedStats* HttpCacheSharedStats::InitShared(void* zeroed_memory) {
  auto* stats = new (zeroed_memory) HttpCacheSharedStats();
  mutex_init(&stats->lock, THREAD_SYNC_SHARED, nullptr);
  mutex_set_name(&stats->lock, "http.cache.shared_stats");
  mutex_set_order(&stats->lock, 2);  // above the shard locks (level 1)
  return stats;
}

HttpCache::HttpCache(int shards, size_t max_bytes)
    : shards_(RoundUpPow2(shards < 1 ? 1 : static_cast<size_t>(shards))) {
  shard_mask_ = shards_.size() - 1;
  max_bytes_per_shard_ = max_bytes / shards_.size();
  for (Shard& s : shards_) {
    rw_init(&s.lock, 0, nullptr);
    // One class for every shard, placed at level 1 of the cache hierarchy:
    // fills may climb to the shared-stats mutex (level 2) while holding it.
    rw_set_name(&s.lock, "http.cache.shard");
    rw_set_order(&s.lock, 1);
  }
}

HttpCache::~HttpCache() = default;

HttpCache::Shard* HttpCache::ShardFor(std::string_view key) {
  return &shards_[std::hash<std::string_view>{}(key)&shard_mask_];
}

void HttpCache::NoteShared(uint64_t hit, uint64_t miss, uint64_t insert) {
  HttpCacheSharedStats* stats = shared_stats_.load(std::memory_order_acquire);
  if (stats == nullptr) {
    return;
  }
  mutex_enter(&stats->lock);
  stats->hits += hit;
  stats->misses += miss;
  stats->inserts += insert;
  mutex_exit(&stats->lock);
}

std::shared_ptr<const HttpCache::Entry> HttpCache::Lookup(std::string_view key) {
  Shard* shard = ShardFor(key);
  std::shared_ptr<const Entry> entry;
  rw_enter(&shard->lock, RW_READER);
  auto it = shard->map.find(std::string(key));
  if (it != shard->map.end()) {
    entry = it->second;
  }
  rw_exit(&shard->lock);
  if (entry != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    NoteShared(1, 0, 0);  // hot path: shared stats taken after the shard lock
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    NoteShared(0, 1, 0);
  }
  return entry;
}

void HttpCache::Retire(Shard* shard, std::shared_ptr<Entry>* slot) {
  // Under the writer lock no Lookup can copy the pointer, so a use count of 1
  // means no responder still holds these bytes. The probe copy is an acquire
  // read-modify-write of the count: it orders the last responder's reads of
  // the body (before it released its reference) before this reuse.
  if (shard->spare.size() < kMaxSpareBodies && slot->use_count() == 1) {
    std::shared_ptr<Entry> probe = *slot;
    probe.reset();
    std::string& body = (*slot)->body;
    shard->spare_bytes += body.capacity();
    shard->spare.push_back(std::move(body));
  }
  slot->reset();
}

void HttpCache::TakeSpare(Shard* shard, std::string* body, std::string* discard) {
  // The budget counts body sizes, so a reused buffer may be at most twice the
  // body: live entries then never hold more than twice their counted bytes.
  size_t best = shard->spare.size();
  for (size_t i = 0; i < shard->spare.size(); ++i) {
    size_t cap = shard->spare[i].capacity();
    if (cap >= body->size() && cap / 2 <= body->size() &&
        (best == shard->spare.size() || cap < shard->spare[best].capacity())) {
      best = i;
    }
  }
  if (best == shard->spare.size()) {
    return;
  }
  std::string buffer = std::move(shard->spare[best]);
  shard->spare[best] = std::move(shard->spare.back());
  shard->spare.pop_back();
  shard->spare_bytes -= buffer.capacity();
  buffer.assign(*body);  // fits: no allocation
  discard->swap(*body);
  body->swap(buffer);
}

void HttpCache::Insert(std::string_view key, Entry entry) {
  size_t cost = entry.body.size() + key.size();
  if (cost > max_bytes_per_shard_) {
    return;  // larger than a shard's whole budget: not cacheable
  }
  Shard* shard = ShardFor(key);
  std::string name(key);
  std::string discard;  // the caller's body buffer, freed after the lock
  uint64_t evicted = 0;
  rw_enter(&shard->lock, RW_WRITER);
  // A replaced entry keeps its FIFO position, unless eviction reaches it.
  auto old = shard->map.find(name);
  bool needs_fifo_name = old == shard->map.end();
  if (!needs_fifo_name) {
    shard->bytes -= old->second->body.size() + old->first.size();
    Retire(shard, &old->second);
    shard->map.erase(old);
  }
  // Evict before allocating: the victims' buffers can carry the new body.
  while (shard->bytes + cost > max_bytes_per_shard_ && !shard->fifo.empty()) {
    const std::string& victim_key = shard->fifo.front();
    auto victim = shard->map.find(victim_key);
    if (victim != shard->map.end()) {
      shard->bytes -= victim->second->body.size() + victim->first.size();
      Retire(shard, &victim->second);
      shard->map.erase(victim);
      ++evicted;
    } else if (victim_key == name) {
      needs_fifo_name = true;  // the replaced entry's position is gone
    }
    shard->fifo.pop_front();
  }
  TakeSpare(shard, &entry.body, &discard);
  auto it = shard->map.emplace(std::move(name),
                               std::make_shared<Entry>(std::move(entry))).first;
  if (needs_fifo_name) {
    shard->fifo.push_back(it->first);
  }
  shard->bytes += cost;
  // Spares live on only within the budget the live entries leave.
  while (!shard->spare.empty() &&
         shard->bytes + shard->spare_bytes > max_bytes_per_shard_) {
    shard->spare_bytes -= shard->spare.back().capacity();
    shard->spare.pop_back();
  }
  // Intended hierarchy, annotated for lockdep: shard lock (level 1) held
  // while climbing to the cross-process stats mutex (level 2).
  NoteShared(0, 0, 1);
  rw_exit(&shard->lock);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

bool HttpCache::Remove(std::string_view key) {
  Shard* shard = ShardFor(key);
  bool removed = false;
  rw_enter(&shard->lock, RW_WRITER);
  auto it = shard->map.find(std::string(key));
  if (it != shard->map.end()) {
    shard->bytes -= it->second->body.size() + it->first.size();
    shard->map.erase(it);
    removed = true;  // the stale fifo name is skipped at eviction time
  }
  rw_exit(&shard->lock);
  return removed;
}

void HttpCache::Clear() {
  for (Shard& shard : shards_) {
    rw_enter(&shard.lock, RW_WRITER);
    shard.map.clear();
    shard.fifo.clear();
    shard.bytes = 0;
    shard.spare.clear();
    shard.spare_bytes = 0;
    rw_exit(&shard.lock);
  }
}

HttpCache::Stats HttpCache::SnapshotStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    rw_enter(const_cast<rwlock_t*>(&shard.lock), RW_READER);
    stats.entries += shard.map.size();
    stats.bytes += shard.bytes;
    rw_exit(const_cast<rwlock_t*>(&shard.lock));
  }
  return stats;
}

}  // namespace sunmt
