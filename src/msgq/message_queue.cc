#include "src/msgq/message_queue.h"

#include <string.h>

#include <new>

#include "src/util/check.h"

namespace sunmt {
namespace {

constexpr size_t kSlotAlign = 8;

size_t SlotStride(uint32_t max_message_size) {
  size_t raw = sizeof(uint32_t) + max_message_size;
  return (raw + kSlotAlign - 1) / kSlotAlign * kSlotAlign;
}

}  // namespace

size_t MessageQueue::FootprintBytes(uint32_t max_message_size, uint32_t capacity) {
  return sizeof(MessageQueue) + SlotStride(max_message_size) * capacity;
}

MessageQueue* MessageQueue::CreateAt(void* memory, uint32_t max_message_size,
                                     uint32_t capacity, int sync_type) {
  if (memory == nullptr || max_message_size == 0 || capacity == 0) {
    return nullptr;
  }
  auto* queue = new (memory) MessageQueue();
  queue->max_message_size_ = max_message_size;
  queue->capacity_ = capacity;
  sema_init(&queue->free_slots_, capacity, sync_type, nullptr);
  sema_init(&queue->queued_items_, 0, sync_type, nullptr);
  mutex_init(&queue->ring_lock_, sync_type, nullptr);
  queue->head_ = 0;
  queue->tail_ = 0;
  queue->depth_.store(0, std::memory_order_relaxed);
  queue->magic_ = kMagic;  // published last for OpenAt validation
  return queue;
}

MessageQueue* MessageQueue::OpenAt(void* memory) {
  auto* queue = static_cast<MessageQueue*>(memory);
  if (queue == nullptr || queue->magic_ != kMagic) {
    return nullptr;
  }
  return queue;
}

char* MessageQueue::SlotAt(uint32_t position) {
  SUNMT_DCHECK(position < capacity_);
  return reinterpret_cast<char*>(this + 1) +
         SlotStride(max_message_size_) * position;
}

uint32_t MessageQueue::NextPosition(uint32_t position, uint32_t capacity) {
  // See the header: positions wrap at capacity, never at 2^32, so the slot
  // sequence stays continuous for any capacity.
  return position + 1 == capacity ? 0 : position + 1;
}

void MessageQueue::TestOnlySetLogicalPositions(uint32_t count) {
  mutex_enter(&ring_lock_);
  SUNMT_CHECK(depth_.load(std::memory_order_relaxed) == 0);
  head_ = count % capacity_;
  tail_ = head_;
  mutex_exit(&ring_lock_);
}

void MessageQueue::Enqueue(const void* data, size_t len) {
  mutex_enter(&ring_lock_);
  char* slot = SlotAt(tail_);
  tail_ = NextPosition(tail_, capacity_);
  auto len32 = static_cast<uint32_t>(len);
  memcpy(slot, &len32, sizeof(len32));
  memcpy(slot + sizeof(len32), data, len);
  depth_.fetch_add(1, std::memory_order_release);  // payload published above
  mutex_exit(&ring_lock_);
  sema_v(&queued_items_);
}

size_t MessageQueue::Dequeue(void* buf, size_t buf_size, size_t* full_len) {
  mutex_enter(&ring_lock_);
  char* slot = SlotAt(head_);
  head_ = NextPosition(head_, capacity_);
  uint32_t len = 0;
  memcpy(&len, slot, sizeof(len));
  // Contract: return bytes copied (bounded by buf_size), surface the sender's
  // length separately. Returning the raw `len` would invite a short-buffer
  // caller to read `len` bytes from a buffer that only ever held `copy`.
  size_t copy = len < buf_size ? len : buf_size;
  memcpy(buf, slot + sizeof(len), copy);
  depth_.fetch_sub(1, std::memory_order_release);
  mutex_exit(&ring_lock_);
  sema_v(&free_slots_);
  if (full_len != nullptr) {
    *full_len = len;
  }
  return copy;
}

bool MessageQueue::Send(const void* data, size_t len) {
  if (len > max_message_size_) {
    return false;
  }
  sema_p(&free_slots_);
  Enqueue(data, len);
  return true;
}

bool MessageQueue::TrySend(const void* data, size_t len) {
  if (len > max_message_size_ || !sema_tryp(&free_slots_)) {
    return false;
  }
  Enqueue(data, len);
  return true;
}

bool MessageQueue::SendTimed(const void* data, size_t len, int64_t timeout_ns) {
  if (len > max_message_size_ || !sema_p_timed(&free_slots_, timeout_ns)) {
    return false;
  }
  Enqueue(data, len);
  return true;
}

size_t MessageQueue::Recv(void* buf, size_t buf_size, size_t* full_len) {
  sema_p(&queued_items_);
  return Dequeue(buf, buf_size, full_len);
}

size_t MessageQueue::TryRecv(void* buf, size_t buf_size, size_t* full_len) {
  if (!sema_tryp(&queued_items_)) {
    return SIZE_MAX;
  }
  return Dequeue(buf, buf_size, full_len);
}

size_t MessageQueue::RecvTimed(void* buf, size_t buf_size, int64_t timeout_ns,
                               size_t* full_len) {
  if (!sema_p_timed(&queued_items_, timeout_ns)) {
    return SIZE_MAX;
  }
  return Dequeue(buf, buf_size, full_len);
}

}  // namespace sunmt
