#include "src/recordstore/record_store.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include "src/util/check.h"

namespace sunmt {
namespace {

constexpr uint64_t kAlign = 64;  // slot alignment: keep locks off shared lines

uint64_t RoundUp(uint64_t n, uint64_t align) { return (n + align - 1) / align * align; }

}  // namespace

RecordStore::RecordStore(void* base, uint64_t size)
    : base_(base), map_size_(size), header_(static_cast<Header*>(base)) {}

RecordStore& RecordStore::operator=(RecordStore&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) {
      munmap(base_, map_size_);
    }
    base_ = other.base_;
    map_size_ = other.map_size_;
    header_ = other.header_;
    other.base_ = nullptr;
    other.map_size_ = 0;
    other.header_ = nullptr;
  }
  return *this;
}

RecordStore::~RecordStore() {
  if (base_ != nullptr) {
    munmap(base_, map_size_);
  }
}

uint64_t RecordStore::FileSize(uint32_t record_size, uint32_t capacity) {
  uint64_t header = RoundUp(sizeof(Header), kAlign);
  uint64_t bitmap = RoundUp((static_cast<uint64_t>(capacity) + 63) / 64 * 8, kAlign);
  uint64_t stride = RoundUp(sizeof(RecordSlot) + record_size, kAlign);
  return header + bitmap + stride * capacity;
}

uint64_t RecordStore::SlotStride() const {
  return RoundUp(sizeof(RecordSlot) + header_->record_size, kAlign);
}

std::atomic<uint64_t>* RecordStore::AllocWords() {
  return reinterpret_cast<std::atomic<uint64_t>*>(static_cast<char*>(base_) +
                                                  RoundUp(sizeof(Header), kAlign));
}

RecordStore::RecordSlot* RecordStore::Slot(uint32_t index) {
  SUNMT_CHECK(index < header_->capacity);
  uint64_t header = RoundUp(sizeof(Header), kAlign);
  uint64_t bitmap =
      RoundUp((static_cast<uint64_t>(header_->capacity) + 63) / 64 * 8, kAlign);
  char* records = static_cast<char*>(base_) + header + bitmap;
  return reinterpret_cast<RecordSlot*>(records + SlotStride() * index);
}

RecordStore RecordStore::Create(const char* path, uint32_t record_size,
                                uint32_t capacity) {
  if (record_size == 0 || capacity == 0) {
    return RecordStore();
  }
  uint64_t size = FileSize(record_size, capacity);
  int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    SUNMT_PANIC_ERRNO("record store create failed", errno);
  }
  if (ftruncate(fd, static_cast<off_t>(size)) != 0) {
    SUNMT_PANIC_ERRNO("record store ftruncate failed", errno);
  }
  void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (base == MAP_FAILED) {
    SUNMT_PANIC_ERRNO("record store mmap failed", errno);
  }
  RecordStore store(base, size);
  Header* header = store.header_;
  header->record_size = record_size;
  header->capacity = capacity;
  rw_init(&header->store_lock, THREAD_SYNC_SHARED, nullptr);
  // Fresh ftruncate'd pages are zero: every record mutex and the allocation
  // bitmap are already in their valid default state. Initialize only the
  // variant types on the locks, and declare their one lockdep class ordered:
  // callers nest record locks in index order.
  for (uint32_t i = 0; i < capacity; ++i) {
    mutex_init(&store.Slot(i)->lock, THREAD_SYNC_SHARED, nullptr);
    mutex_set_order(&store.Slot(i)->lock, 1);
  }
  std::atomic_thread_fence(std::memory_order_release);
  header->magic = kMagic;  // published last: Open() validates it
  return store;
}

RecordStore RecordStore::Open(const char* path) {
  int fd = open(path, O_RDWR);
  if (fd < 0) {
    return RecordStore();
  }
  off_t file_size = lseek(fd, 0, SEEK_END);
  if (file_size < static_cast<off_t>(sizeof(Header))) {
    close(fd);
    return RecordStore();
  }
  void* base =
      mmap(nullptr, static_cast<size_t>(file_size), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (base == MAP_FAILED) {
    return RecordStore();
  }
  RecordStore store(base, static_cast<uint64_t>(file_size));
  Header* header = store.header_;
  if (header->magic != kMagic ||
      FileSize(header->record_size, header->capacity) > store.map_size_) {
    return RecordStore();  // not a record store (mapping unmapped by dtor)
  }
  return store;
}

uint32_t RecordStore::capacity() const { return header_->capacity; }

uint32_t RecordStore::record_size() const { return header_->record_size; }

void* RecordStore::Lock(uint32_t index) {
  RecordSlot* slot = Slot(index);
  mutex_enter(&slot->lock);
  return slot + 1;
}

void* RecordStore::TryLock(uint32_t index) {
  RecordSlot* slot = Slot(index);
  return mutex_tryenter(&slot->lock) ? static_cast<void*>(slot + 1) : nullptr;
}

void RecordStore::Unlock(uint32_t index) { mutex_exit(&Slot(index)->lock); }

void* RecordStore::UnsafeAt(uint32_t index) { return Slot(index) + 1; }

int64_t RecordStore::Allocate() {
  rw_enter(&header_->store_lock, RW_WRITER);
  std::atomic<uint64_t>* words = AllocWords();
  uint32_t nwords = (header_->capacity + 63) / 64;
  for (uint32_t w = 0; w < nwords; ++w) {
    uint64_t bits = words[w].load(std::memory_order_relaxed);
    if (bits == ~uint64_t{0}) {
      continue;
    }
    uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(~bits));
    uint32_t index = w * 64 + bit;
    if (index >= header_->capacity) {
      break;
    }
    words[w].store(bits | (uint64_t{1} << bit), std::memory_order_relaxed);
    rw_exit(&header_->store_lock);
    return index;
  }
  rw_exit(&header_->store_lock);
  return -1;
}

void RecordStore::Free(uint32_t index) {
  SUNMT_CHECK(index < header_->capacity);
  rw_enter(&header_->store_lock, RW_WRITER);
  std::atomic<uint64_t>* words = AllocWords();
  uint64_t mask = uint64_t{1} << (index % 64);
  uint64_t bits = words[index / 64].load(std::memory_order_relaxed);
  SUNMT_CHECK((bits & mask) != 0);  // double free
  words[index / 64].store(bits & ~mask, std::memory_order_relaxed);
  rw_exit(&header_->store_lock);
}

uint32_t RecordStore::AllocatedCount() {
  rw_enter(&header_->store_lock, RW_READER);
  std::atomic<uint64_t>* words = AllocWords();
  uint32_t nwords = (header_->capacity + 63) / 64;
  uint32_t count = 0;
  for (uint32_t w = 0; w < nwords; ++w) {
    count += static_cast<uint32_t>(
        __builtin_popcountll(words[w].load(std::memory_order_relaxed)));
  }
  rw_exit(&header_->store_lock);
  return count;
}

void RecordStore::Unlink(const char* path) { unlink(path); }

}  // namespace sunmt
