// Static thread-local storage layout.
//
// The paper's `#pragma unshared` gives each thread a private, zero-initialized copy
// of selected variables; "the size of thread-local storage is computed by the
// run-time linker at program start time ... once the size is computed it is not
// changed", and the block "can be allocated as part of stack storage".
//
// We reproduce that lifecycle: modules register their TLS byte requirements (the
// linker-sum analogue, normally from static initializers of sunmt::ThreadLocal<T>
// objects), and the layout freezes permanently the first time a thread is created.
// Each TCB then carves a zeroed block of the frozen size out of its stack.
// Registration after the freeze panics, exactly as late dynamic linking could not
// grow TLS in the paper. More dynamic mechanisms (POSIX-style thread-specific
// data) are layered on top in src/tls.

#ifndef SUNMT_SRC_CORE_TLS_ARENA_H_
#define SUNMT_SRC_CORE_TLS_ARENA_H_

#include <cstddef>

namespace sunmt {

class TlsArena {
 public:
  // Reserves `size` bytes aligned to `align` in every thread's TLS block and
  // returns the block offset. Panics if the layout is already frozen or if
  // `align` is not a power of two.
  static size_t Register(size_t size, size_t align);

  // Freezes the layout (idempotent) and returns the per-thread TLS block size.
  static size_t FrozenSize();

  static bool IsFrozen();

  // Test hook: unfreezes and clears the layout. Only safe when no sunmt threads
  // exist; used by unit tests in a child process.
  static void ResetForTest();

  // fork1() child repair (Runtime::ResetAfterFork): resets the lock, keeping
  // the layout (child threads still need the frozen TLS size).
  static void ResetAfterFork();
};

}  // namespace sunmt

#endif  // SUNMT_SRC_CORE_TLS_ARENA_H_
