// A record store in a mapped file, with per-record cross-process locks.
//
// This is the paper's database example built out as a reusable substrate: "a
// file can be created that contains data base records. Each record can contain
// a mutual exclusion lock variable that controls access to the associated
// record. A process can map the file and a thread within it can obtain the lock
// associated with a particular record ... Once the lock has been acquired, if
// any thread within any process mapping the file attempts to acquire the lock,
// that thread will block until the lock is released." And the lifetime rule:
// "synchronization variables can also be placed in files and have lifetimes
// beyond that of the creating process."
//
// Layout of the file:
//
//   [ Header | allocation words | record 0 | record 1 | ... ]
//     header: magic, geometry, a store-wide THREAD_SYNC_SHARED rwlock
//     record: THREAD_SYNC_SHARED mutex + user payload (record_size bytes)
//
// Everything in the file is address-free (futex words + offsets), so any number
// of processes may map it at different addresses concurrently.

#ifndef SUNMT_SRC_RECORDSTORE_RECORD_STORE_H_
#define SUNMT_SRC_RECORDSTORE_RECORD_STORE_H_

#include <atomic>
#include <cstdint>

#include "src/sync/sync.h"

namespace sunmt {

class RecordStore {
 public:
  RecordStore() = default;

  // Creates (truncating) a store with `capacity` records of `record_size`
  // payload bytes each. Panics on I/O failure; returns an invalid store only
  // on bad arguments.
  static RecordStore Create(const char* path, uint32_t record_size, uint32_t capacity);

  // Opens an existing store; validates the header. Returns an invalid store if
  // the file is missing or not a record store.
  static RecordStore Open(const char* path);

  RecordStore(RecordStore&& other) noexcept { *this = static_cast<RecordStore&&>(other); }
  RecordStore& operator=(RecordStore&& other) noexcept;
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;
  ~RecordStore();  // unmaps; the file (and the locks in it) persists

  bool valid() const { return header_ != nullptr; }
  uint32_t capacity() const;
  uint32_t record_size() const;

  // ---- Per-record locking ----------------------------------------------------
  // Locks record `index` (blocking across processes) and returns its payload.
  // A caller holding two records locks the lower index first.
  void* Lock(uint32_t index);
  // Non-blocking variant; nullptr if the record is locked elsewhere.
  void* TryLock(uint32_t index);
  void Unlock(uint32_t index);

  // Unsynchronized payload access (for initialization / post-join audits).
  void* UnsafeAt(uint32_t index);

  // Runs fn(payload) with the record locked.
  template <typename Fn>
  void WithRecord(uint32_t index, Fn&& fn) {
    void* payload = Lock(index);
    fn(payload);
    Unlock(index);
  }

  // ---- Record allocation -------------------------------------------------------
  // A shared allocation bitmap guarded by the store-wide rwlock: Allocate()
  // claims a free record (returns -1 when full), Free() releases it. Safe
  // across processes.
  int64_t Allocate();
  void Free(uint32_t index);
  uint32_t AllocatedCount();

  // Bytes a store with this geometry occupies (for pre-sizing checks).
  static uint64_t FileSize(uint32_t record_size, uint32_t capacity);

  // Removes the backing file (best effort).
  static void Unlink(const char* path);

 private:
  struct Header {
    uint64_t magic;
    uint32_t record_size;
    uint32_t capacity;
    rwlock_t store_lock;  // guards the allocation bitmap
  };

  struct RecordSlot {
    mutex_t lock;
    // payload of record_size bytes follows
  };

  static constexpr uint64_t kMagic = 0x53554e4d54524543ull;  // "SUNMTREC"

  RecordStore(void* base, uint64_t size);

  uint64_t SlotStride() const;
  RecordSlot* Slot(uint32_t index);
  std::atomic<uint64_t>* AllocWords();

  void* base_ = nullptr;
  uint64_t map_size_ = 0;
  Header* header_ = nullptr;
};

}  // namespace sunmt

#endif  // SUNMT_SRC_RECORDSTORE_RECORD_STORE_H_
