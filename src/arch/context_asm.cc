// C++ glue for the x86_64 assembly context backend (context_x86_64.S).

#include "src/arch/context.h"

#if defined(SUNMT_CONTEXT_ASM)

#include <cstring>

#include "src/util/check.h"

extern "C" {
void* sunmt_ctx_jump(void** from_sp, void* to_sp, void* data);
void sunmt_ctx_trampoline();

// Called by the trampoline if a context entry function ever returns.
void sunmt_ctx_entry_returned() { SUNMT_PANIC("context entry function returned"); }
}

namespace sunmt {
namespace {

// Offsets into the saved frame; must match context_x86_64.S.
constexpr size_t kFrameSize = 0x40;
constexpr size_t kSlotFpu = 0x00;
constexpr size_t kSlotEntry = 0x28;  // rbx: the trampoline calls *%rbx
constexpr size_t kSlotFp = 0x30;     // rbp: zeroed to terminate backtraces
constexpr size_t kSlotPc = 0x38;     // return address -> trampoline

}  // namespace

void Context::Make(void* stack_base, size_t size, EntryFn entry) {
  SUNMT_CHECK(stack_base != nullptr);
  SUNMT_CHECK(size >= kMinStackSize);
  uintptr_t top = reinterpret_cast<uintptr_t>(stack_base) + size;
  // Frame must end 16-byte aligned so the trampoline's call site satisfies the ABI.
  top &= ~uintptr_t{15};
  uintptr_t sp = top - kFrameSize;

  char* frame = reinterpret_cast<char*>(sp);
  memset(frame, 0, kFrameSize);

  // Sane FP state for the new context: default mxcsr (all exceptions masked,
  // round-to-nearest) and default x87 control word.
  uint32_t mxcsr = 0x1f80;
  uint16_t fcw = 0x037f;
  memcpy(frame + kSlotFpu, &mxcsr, sizeof(mxcsr));
  memcpy(frame + kSlotFpu + 4, &fcw, sizeof(fcw));

  void* entry_ptr = reinterpret_cast<void*>(entry);
  void* tramp_ptr = reinterpret_cast<void*>(&sunmt_ctx_trampoline);
  void* zero = nullptr;
  memcpy(frame + kSlotEntry, &entry_ptr, sizeof(entry_ptr));
  memcpy(frame + kSlotFp, &zero, sizeof(zero));  // terminate backtraces
  memcpy(frame + kSlotPc, &tramp_ptr, sizeof(tramp_ptr));

  sp_ = reinterpret_cast<void*>(sp);
  TsanOnMake();
}

void* Context::SwitchTo(Context& target, void* data) {
  SUNMT_DCHECK(target.sp_ != nullptr);
  TsanOnSwitch(target);
  return sunmt_ctx_jump(&sp_, target.sp_, data);
}

}  // namespace sunmt

#endif  // SUNMT_CONTEXT_ASM
