// Machine-dependent user-mode context switching.
//
// This is the mechanism that makes unbound threads "extremely lightweight": an LWP
// assumes the identity of a thread by loading its register state from process memory
// and sheds it by saving the registers back (Figure 2 in the paper), all without
// entering the kernel.
//
// Two backends:
//  - x86_64 assembly (default on x86_64): saves only the System-V callee-saved
//    registers plus the FP control words, boost.context style. ~tens of ns.
//  - ucontext (every other architecture, AArch64 included, or
//    -DSUNMT_FORCE_UCONTEXT=ON on x86_64): uses
//    swapcontext(2), which on Linux also saves the signal mask via sigprocmask —
//    an instructive ablation, since that is precisely the kernel crossing the
//    paper's design avoids (see bench/abl_context_switch).
//
// A Context is a *slot* for a suspended activation. Usage:
//
//   Context lwp_ctx, thr_ctx;
//   thr_ctx.Make(stack.base(), stack.size(), entry);   // prepare new activation
//   void* r = lwp_ctx.SwitchTo(thr_ctx, data);         // run it; we suspend here
//
// The data pointer passed to SwitchTo() is delivered to the resumed side: as the
// entry function's argument on first activation, or as SwitchTo()'s return value
// on re-activation. The scheduler uses it to hand over "commit" closures.

#ifndef SUNMT_SRC_ARCH_CONTEXT_H_
#define SUNMT_SRC_ARCH_CONTEXT_H_

#include <cstddef>
#include <cstdint>

// Backend selection: x86_64 gets the assembly path unless -DSUNMT_USE_UCONTEXT;
// everything else uses the portable ucontext backend.
#if defined(__x86_64__) && !defined(SUNMT_USE_UCONTEXT)
#define SUNMT_CONTEXT_ASM 1
#else
#define SUNMT_CONTEXT_UCONTEXT 1
#endif

#if defined(SUNMT_CONTEXT_UCONTEXT)
#include <ucontext.h>
#endif

// Under TSan every activation must be announced as a "fiber", or the runtime's
// shadow stack desyncs across user-level switches (sporadic SEGVs and false
// races). Each Context carries the fiber of the activation suspended in it.
#if defined(__SANITIZE_THREAD__)
#define SUNMT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUNMT_TSAN_FIBERS 1
#endif
#endif
#if defined(SUNMT_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace sunmt {

class Context {
 public:
  using EntryFn = void (*)(void* arg);

  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Prepares this slot so that the first SwitchTo() into it starts executing
  // entry(arg) on the given stack (which grows down from base+size). The entry
  // function must never return; it must switch away (thread exit goes through
  // the scheduler). `size` must be at least kMinStackSize.
  void Make(void* stack_base, size_t size, EntryFn entry);

  // Suspends the current activation into *this and resumes `target`. Returns the
  // data passed by whichever activation later resumes *this.
  void* SwitchTo(Context& target, void* data);

  static constexpr size_t kMinStackSize = 4096;

#if defined(SUNMT_TSAN_FIBERS)
  ~Context() {
    if (tsan_owned_ && tsan_fiber_ != nullptr) {
      __tsan_destroy_fiber(tsan_fiber_);
    }
  }
#endif

 private:
#if defined(SUNMT_TSAN_FIBERS)
  // Make() creates a fiber for the new activation (owned); a pthread-root
  // activation's fiber is captured from TSan on first suspend (not owned).
  void TsanOnMake() {
    if (tsan_owned_ && tsan_fiber_ != nullptr) {
      __tsan_destroy_fiber(tsan_fiber_);  // slot reused for a fresh activation
    }
    tsan_fiber_ = __tsan_create_fiber(0);
    tsan_owned_ = true;
  }
  void TsanOnSwitch(Context& target) {
    tsan_fiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(target.tsan_fiber_, 0);
  }
  void* tsan_fiber_ = nullptr;
  bool tsan_owned_ = false;
#else
  void TsanOnMake() {}
  void TsanOnSwitch(Context&) {}
#endif

#if defined(SUNMT_CONTEXT_ASM)
  void* sp_ = nullptr;  // saved stack pointer; the register frame lives on the stack
#else
  ucontext_t uc_ = {};
  void* transfer_ = nullptr;  // data handed to this context by its resumer
  EntryFn entry_ = nullptr;
  static void Trampoline(unsigned hi, unsigned lo);
#endif
};

}  // namespace sunmt

#endif  // SUNMT_SRC_ARCH_CONTEXT_H_
