#include "src/tls/tsd.h"

#include <stdlib.h>
#include <string.h>

#include "src/tls/thread_local.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

struct KeyTable {
  SpinLock lock;
  uint32_t next = 1;  // 0 is kInvalidTsdKey
  void (*destructors[kMaxTsdKeys])(void*) = {};
};

KeyTable& Keys() {
  static KeyTable table;
  return table;
}

// The one static TLS slot: pointer to this thread's value array. Registered at
// static-initialization time, i.e. before the TLS layout freezes — this is the
// only static TLS the dynamic mechanism needs, which is exactly why the paper
// says TSD "can be built using thread-local storage".
ThreadLocal<void**> g_tsd_slot;

ThreadLocal<void**>& Slot() { return g_tsd_slot; }

void** EnsureValues() {
  void**& values = Slot().Get();
  if (values == nullptr) {
    values = static_cast<void**>(calloc(kMaxTsdKeys, sizeof(void*)));
    SUNMT_CHECK(values != nullptr);
  }
  return values;
}

bool KeyValid(tsd_key_t key) {
  if (key == kInvalidTsdKey || key >= kMaxTsdKeys) {
    return false;
  }
  KeyTable& keys = Keys();
  SpinLockGuard guard(keys.lock);
  return key < keys.next;
}

}  // namespace

void RunTsdDestructors() {
  void** values = Slot().Get();
  if (values == nullptr) {
    return;
  }
  KeyTable& keys = Keys();
  // POSIX-style: iterate a few rounds in case destructors set fresh values.
  for (int round = 0; round < 4; ++round) {
    bool any = false;
    for (uint32_t k = 1; k < kMaxTsdKeys; ++k) {
      void* v = values[k];
      if (v == nullptr) {
        continue;
      }
      values[k] = nullptr;
      void (*dtor)(void*) = nullptr;
      {
        SpinLockGuard guard(keys.lock);
        dtor = keys.destructors[k];
      }
      if (dtor != nullptr) {
        any = true;
        dtor(v);
      }
    }
    if (!any) {
      break;
    }
  }
  free(values);
  Slot().Get() = nullptr;
}

// Keys stay valid in the child (plain array); only the lock may hold a parent
// thread's image.
void TsdResetAfterFork() { Keys().lock.Reset(); }

tsd_key_t tsd_key_create(void (*destructor)(void*)) {
  KeyTable& keys = Keys();
  SpinLockGuard guard(keys.lock);
  if (keys.next >= kMaxTsdKeys) {
    return kInvalidTsdKey;
  }
  tsd_key_t key = keys.next++;
  keys.destructors[key] = destructor;
  return key;
}

int tsd_set(tsd_key_t key, void* value) {
  if (!KeyValid(key)) {
    return -1;
  }
  EnsureValues()[key] = value;
  return 0;
}

void* tsd_get(tsd_key_t key) {
  if (!KeyValid(key)) {
    return nullptr;
  }
  void** values = Slot().Get();
  return values == nullptr ? nullptr : values[key];
}

}  // namespace sunmt
