// Dynamic thread-specific data, built on top of static thread-local storage.
//
// The paper: "More dynamic mechanisms (such as POSIX thread-specific data) can be
// built using thread-local storage." This is that mechanism: keys can be created
// at any time (even after threads exist), values are per-thread void*s, and an
// optional destructor runs at thread exit for each non-null value.
//
// Implementation: a single static TLS slot holds a pointer to a lazily-allocated
// per-thread value array; the key space is process-wide.

#ifndef SUNMT_SRC_TLS_TSD_H_
#define SUNMT_SRC_TLS_TSD_H_

#include <cstdint>

namespace sunmt {

using tsd_key_t = uint32_t;
inline constexpr tsd_key_t kInvalidTsdKey = 0;
inline constexpr uint32_t kMaxTsdKeys = 128;

// Creates a new key. `destructor` (may be null) runs at thread exit on each
// thread's non-null value for this key. Returns kInvalidTsdKey if the key space
// is exhausted.
tsd_key_t tsd_key_create(void (*destructor)(void* value));

// Sets/gets the calling thread's value for `key`. Unset values read as nullptr.
// Returns 0 on success, -1 for an unknown key.
int tsd_set(tsd_key_t key, void* value);
void* tsd_get(tsd_key_t key);

// Package-internal: runs the calling thread's destructors for its non-null
// values and frees its value array. The scheduler calls it on every exiting
// thread's own stack, so destructors may run user code.
void RunTsdDestructors();

// Package-internal: fork1() child repair (Runtime::ResetAfterFork). Resets the
// key table's lock.
void TsdResetAfterFork();

}  // namespace sunmt

#endif  // SUNMT_SRC_TLS_TSD_H_
