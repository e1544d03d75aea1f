#include "src/signal/signal.h"

#include <unistd.h>

#include <atomic>

#include "src/arch/context.h"
#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/trace.h"
#include "src/core/tcb.h"
#include "src/lwp/lwp.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

enum class DefaultAction : uint8_t { kExit, kIgnore, kStop, kContinue };

DefaultAction DefaultActionFor(int sig) {
  switch (sig) {
    case SIG_CHLD:
    case SIG_IO:
    case SIG_WAITING:  // "the default handling for SIGWAITING is to ignore it"
      return DefaultAction::kIgnore;
    case SIG_STOP:
      return DefaultAction::kStop;
    case SIG_CONT:
      return DefaultAction::kContinue;
    default:
      return DefaultAction::kExit;
  }
}

struct SignalState {
  SpinLock lock;
  SignalHandler handlers[SIG_MAX + 1] = {};
  std::atomic<sigset64_t> process_pending{0};
  std::atomic<uint64_t> coalesced{0};
};

SignalState& State() {
  static SignalState state;
  return state;
}

bool ValidSig(int sig) { return sig >= 1 && sig <= SIG_MAX; }

// Marks `sig` pending on `tcb`; counts a coalesced signal if it already was.
void PendOnThread(Tcb* tcb, int sig) {
  uint64_t old = tcb->pending_signals.fetch_or(SigBit(sig), std::memory_order_acq_rel);
  if ((old & SigBit(sig)) != 0) {
    State().coalesced.fetch_add(1, std::memory_order_relaxed);
  }
}

// SIG_DFL actions "affect all the threads in the receiving process".
void RunDefaultAction(Tcb* self, int sig) {
  switch (DefaultActionFor(sig)) {
    case DefaultAction::kIgnore:
      return;
    case DefaultAction::kExit:
      _exit(128 + sig);
    case DefaultAction::kStop: {
      Runtime& rt = Runtime::Get();
      // Stop every other thread first, then ourselves.
      std::vector<ThreadId> ids;
      rt.ForEachThread([&](Tcb* t) {
        if (t != self) {
          ids.push_back(t->id);
        }
      });
      for (ThreadId id : ids) {
        thread_stop(id);
      }
      sched::StopSelf();
      return;
    }
    case DefaultAction::kContinue: {
      Runtime& rt = Runtime::Get();
      std::vector<ThreadId> ids;
      rt.ForEachThread([&](Tcb* t) { ids.push_back(t->id); });
      for (ThreadId id : ids) {
        thread_continue(id);
      }
      return;
    }
  }
}

// Alternate-stack dispatch: the handler runs on the bound thread's installed
// alternate stack via a fresh context; control returns here afterwards.
struct AltStackRun {
  SignalHandler handler;
  int sig;
  Context* back;
  Context alt;
};

void AltStackEntry(void* arg) {
  auto* run = static_cast<AltStackRun*>(arg);
  run->handler(run->sig);
  run->alt.SwitchTo(*run->back, nullptr);
  SUNMT_PANIC("alternate-stack handler context resumed after completion");
}

void RunHandler(Tcb* self, SignalHandler handler, int sig) {
  Lwp* lwp = self->bound_lwp;
  if (lwp == nullptr || !lwp->has_alt_stack.load(std::memory_order_acquire) ||
      self->on_alt_stack) {
    handler(sig);
    return;
  }
  // Bound thread with an alternate stack installed: run the handler there.
  Context back;
  AltStackRun run{handler, sig, &back, {}};
  run.alt.Make(lwp->alt_stack_base, lwp->alt_stack_size, &AltStackEntry);
  self->on_alt_stack = true;
  back.SwitchTo(run.alt, &run);
  self->on_alt_stack = false;
}

// Runs the installed disposition for one signal on the current thread, with the
// signal masked for the handler's duration (the per-thread mask is exactly what
// lets "a thread block some signals while it uses state that is also modified by
// a signal handler").
void DispatchOne(Tcb* self, int sig) {
  Trace::Record(TraceEvent::kSignal, self->id, static_cast<uint64_t>(sig));
  SignalHandler handler;
  {
    SpinLockGuard guard(State().lock);
    handler = State().handlers[sig];
  }
  if (handler == SIG_IGNORE) {
    return;
  }
  if (handler == SIG_DEFAULT) {
    RunDefaultAction(self, sig);
    return;
  }
  uint64_t saved = self->sigmask.fetch_or(SigBit(sig), std::memory_order_acq_rel);
  RunHandler(self, handler, sig);
  if ((saved & SigBit(sig)) == 0) {
    self->sigmask.fetch_and(~SigBit(sig), std::memory_order_acq_rel);
  }
}

// Claims process-pending signals that `tcb`'s (new) mask allows and moves them
// to the thread. Call after unmasking.
void ClaimProcessPending(Tcb* tcb) {
  SignalState& s = State();
  uint64_t mask = tcb->sigmask.load(std::memory_order_acquire);
  for (;;) {
    uint64_t pending = s.process_pending.load(std::memory_order_acquire);
    uint64_t claim = pending & ~mask;
    if (claim == 0) {
      return;
    }
    if (s.process_pending.compare_exchange_weak(pending, pending & ~claim,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      tcb->pending_signals.fetch_or(claim, std::memory_order_acq_rel);
      return;
    }
  }
}

}  // namespace

// Handlers and pending sets are preserved, matching fork semantics for signal
// dispositions; only the table's lock may hold a parent thread's image.
void SignalResetAfterFork() { State().lock.Reset(); }

void DeliverPendingSignals(Tcb* self) {
  if (self->handling_signal) {
    return;  // serial handling per thread
  }
  self->handling_signal = true;
  for (;;) {
    uint64_t deliverable = self->pending_signals.load(std::memory_order_acquire) &
                           ~self->sigmask.load(std::memory_order_acquire);
    if (deliverable == 0) {
      break;
    }
    int sig = __builtin_ctzll(deliverable) + 1;
    self->pending_signals.fetch_and(~SigBit(sig), std::memory_order_acq_rel);
    DispatchOne(self, sig);
  }
  self->handling_signal = false;
}

SignalHandler signal_handler_set(int sig, SignalHandler handler) {
  SUNMT_CHECK(ValidSig(sig));
  SpinLockGuard guard(State().lock);
  SignalHandler old = State().handlers[sig];
  State().handlers[sig] = handler;
  return old;
}

SignalHandler signal_handler_get(int sig) {
  SUNMT_CHECK(ValidSig(sig));
  SpinLockGuard guard(State().lock);
  return State().handlers[sig];
}

int thread_sigsetmask(int how, const sigset64_t* set, sigset64_t* oset) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  uint64_t old = self->sigmask.load(std::memory_order_acquire);
  if (oset != nullptr) {
    *oset = old;
  }
  if (set == nullptr) {
    return 0;
  }
  switch (how) {
    case SIGMASK_BLOCK:
      self->sigmask.fetch_or(*set, std::memory_order_acq_rel);
      break;
    case SIGMASK_UNBLOCK:
      self->sigmask.fetch_and(~*set, std::memory_order_acq_rel);
      break;
    case SIGMASK_SETMASK:
      self->sigmask.store(*set, std::memory_order_release);
      break;
    default:
      return -1;
  }
  // "If all threads mask a signal, it will pend on the process until a thread
  // unmasks that signal" — so unmasking claims anything now deliverable.
  ClaimProcessPending(self);
  sched::SafePoint();
  return 0;
}

int thread_kill(thread_id_t thread_id, int sig) {
  if (!ValidSig(sig)) {
    return -1;
  }
  Runtime& rt = Runtime::Get();
  bool found = rt.WithThread(thread_id, [sig](Tcb* target) { PendOnThread(target, sig); });
  if (!found) {
    return -1;
  }
  // A sender off any LWP (the service thread firing a timer) is no thread:
  // adopting it would show it as one.
  Tcb* self = sched::CurrentTcb();
  if (self != nullptr && thread_id == self->id) {
    sched::SafePoint();  // self-directed: behave like a trap, deliver now
  }
  return 0;
}

int sigsend(int id_type, thread_id_t id, int sig) {
  if (!ValidSig(sig)) {
    return -1;
  }
  if (id_type == P_THREAD) {
    return thread_kill(id, sig);
  }
  if (id_type != P_THREAD_ALL) {
    return -1;
  }
  Runtime& rt = Runtime::Get();
  rt.ForEachThread([sig](Tcb* t) { PendOnThread(t, sig); });
  sched::SafePoint();
  return 0;
}

int signal_raise_process(int sig) {
  if (!ValidSig(sig)) {
    return -1;
  }
  // "An interrupt may be handled by any thread that has it enabled in its signal
  // mask. If more than one thread is enabled to receive the interrupt, only one
  // is chosen."
  // Early-exit registry scan: stop at the first enabled thread instead of
  // walking every shard (the common case finds one in the first shard).
  Tcb* chosen = nullptr;
  Runtime& rt = Runtime::Get();
  rt.AnyThread([&](Tcb* t) {
    if ((t->sigmask.load(std::memory_order_acquire) & SigBit(sig)) == 0) {
      chosen = t;
      return true;
    }
    return false;
  });
  if (chosen != nullptr) {
    PendOnThread(chosen, sig);
  } else {
    uint64_t old = State().process_pending.fetch_or(SigBit(sig), std::memory_order_acq_rel);
    if ((old & SigBit(sig)) != 0) {
      State().coalesced.fetch_add(1, std::memory_order_relaxed);
    }
  }
  sched::SafePoint();
  return 0;
}

int signal_raise_trap(int sig) {
  if (!ValidSig(sig) || !signal_is_trap(sig)) {
    return -1;
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  PendOnThread(self, sig);
  sched::SafePoint();  // synchronous: handled by the causing thread, now
  return 0;
}

void signal_poll() {
  DeliverPendingSignals(sched::CurrentTcbOrAdopt());
}

bool signal_is_trap(int sig) {
  switch (sig) {
    case SIG_ILL:
    case SIG_TRAP:
    case SIG_FPE:
    case SIG_SEGV:
      return true;
    default:
      return false;
  }
}

void signal_enable_sigwaiting() {
  Runtime::Get().RaiseSigwaitingSignal();
}

uint64_t signal_coalesced_count() {
  return State().coalesced.load(std::memory_order_relaxed);
}

int signal_altstack(void* base, size_t size) {
  Tcb* self = sched::CurrentTcbOrAdopt();
  Lwp* lwp = self->bound_lwp;
  if (lwp == nullptr) {
    return -1;  // unbound threads may not use alternate signal stacks
  }
  if (base == nullptr) {
    lwp->has_alt_stack.store(false, std::memory_order_release);
    lwp->alt_stack_base = nullptr;
    lwp->alt_stack_size = 0;
    return 0;
  }
  if (size < 16 * 1024) {
    return -1;
  }
  lwp->alt_stack_base = base;
  lwp->alt_stack_size = size;
  lwp->has_alt_stack.store(true, std::memory_order_release);
  return 0;
}

bool signal_on_altstack() {
  Tcb* self = sched::CurrentTcb();
  return self != nullptr && self->on_alt_stack;
}

}  // namespace sunmt
