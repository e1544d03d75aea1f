// Portable ucontext(3) backend.
//
// swapcontext() enters the kernel (sigprocmask) on every switch, which makes it two
// orders of magnitude slower than the assembly backend — the ablation benchmark
// abl_context_switch quantifies exactly the cost the paper's user-level design avoids.

#include "src/arch/context.h"

#if defined(SUNMT_CONTEXT_UCONTEXT)

#include "src/util/check.h"

namespace sunmt {

void Context::Trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Context*>((static_cast<uintptr_t>(hi) << 32) |
                                          static_cast<uintptr_t>(lo));
  self->entry_(self->transfer_);
  SUNMT_PANIC("context entry function returned");
}

void Context::Make(void* stack_base, size_t size, EntryFn entry) {
  SUNMT_CHECK(stack_base != nullptr);
  SUNMT_CHECK(size >= kMinStackSize);
  entry_ = entry;
  SUNMT_CHECK(getcontext(&uc_) == 0);
  uc_.uc_stack.ss_sp = stack_base;
  uc_.uc_stack.ss_size = size;
  uc_.uc_link = nullptr;
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&uc_, reinterpret_cast<void (*)()>(&Context::Trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
  TsanOnMake();
}

void* Context::SwitchTo(Context& target, void* data) {
  target.transfer_ = data;
  TsanOnSwitch(target);
  SUNMT_CHECK(swapcontext(&uc_, &target.uc_) == 0);
  return transfer_;
}

}  // namespace sunmt

#endif  // SUNMT_CONTEXT_UCONTEXT
