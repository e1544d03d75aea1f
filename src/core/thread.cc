#include "src/core/thread.h"

#include <string.h>

#include "src/arch/stack.h"
#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/core/tls_arena.h"
#include "src/core/trace.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

uintptr_t AlignDown(uintptr_t value, uintptr_t align) { return value & ~(align - 1); }

// Carves the TCB and the TLS block out of the top of `stack` and constructs the
// TCB in place. Layout (addresses grow up):
//
//   [ usable stack ... | TLS block (zeroed) | TCB ]
//
// Returns nullptr if the stack is too small.
Tcb* CarveTcb(Stack stack, size_t tls_size) {
  auto base = reinterpret_cast<uintptr_t>(stack.base());
  uintptr_t top = base + stack.size();
  uintptr_t tcb_addr = AlignDown(top - sizeof(Tcb), alignof(Tcb) > 64 ? alignof(Tcb) : 64);
  uintptr_t tls_addr = AlignDown(tcb_addr - tls_size, 16);
  if (tls_addr < base + Context::kMinStackSize) {
    return nullptr;
  }
  Tcb* tcb = new (reinterpret_cast<void*>(tcb_addr)) Tcb;
  if (tls_size > 0) {
    memset(reinterpret_cast<void*>(tls_addr), 0, tls_size);
    tcb->tls_block = reinterpret_cast<void*>(tls_addr);
    tcb->tls_size = tls_size;
  }
  tcb->ctx.Make(reinterpret_cast<void*>(base), tls_addr - base, &sched::ThreadTrampoline);
  tcb->stack = static_cast<Stack&&>(stack);
  return tcb;
}

}  // namespace

thread_id_t thread_create(void* stack_addr, size_t stack_size, void (*func)(void*),
                          void* arg, int flags) {
  if (func == nullptr) {
    return kInvalidThreadId;
  }
  Runtime& rt = Runtime::Get();
  Tcb* creator = sched::CurrentTcbOrAdopt();

  Stack stack;
  if (stack_addr != nullptr) {
    if (stack_size == 0) {
      return kInvalidThreadId;
    }
    stack = Stack::WrapUnowned(stack_addr, stack_size);
  } else if (stack_size == 0 || stack_size == Stack::kDefaultSize) {
    stack = StackCache::Acquire();
  } else {
    stack = Stack::AllocateOwned(stack_size);
  }

  Tcb* tcb = CarveTcb(static_cast<Stack&&>(stack), TlsArena::FrozenSize());
  if (tcb == nullptr) {
    return kInvalidThreadId;  // stack too small for TCB + TLS + minimal frames
  }

  tcb->id = rt.AllocateThreadId();
  tcb->entry = func;
  tcb->arg = arg;
  tcb->waitable = (flags & THREAD_WAIT) != 0;
  // "The initial thread priority and signal mask is set to the same values as
  // its creator."
  tcb->priority.store(creator->priority.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  tcb->sigmask.store(creator->sigmask.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);

  GlobalSchedStats().threads_created.Inc();
  Trace::Record(TraceEvent::kCreate, tcb->id, creator->id);
  rt.RegisterThread(tcb);

  if ((flags & THREAD_BIND_LWP) != 0) {
    rt.SpawnBoundLwp(tcb);  // publishes tcb->bound_lwp before the LWP runs
  } else if ((flags & THREAD_NEW_LWP) != 0) {
    rt.GrowPool(1);
  }

  thread_id_t id = tcb->id;
  if ((flags & THREAD_STOP) != 0) {
    SpinLockGuard guard(tcb->state_lock);
    tcb->state.store(ThreadState::kStopped, std::memory_order_release);
  } else {
    sched::MakeRunnable(tcb, ThreadState::kEmbryo);
  }
  // `tcb` may already be gone here (the thread may have run and exited), so
  // only the saved id is returned.
  return id;
}

int thread_setconcurrency(int n) {
  if (n < 0) {
    return -1;
  }
  return Runtime::Get().SetConcurrency(n);
}

void thread_exit() {
  (void)sched::CurrentTcbOrAdopt();
  sched::ExitCurrent();
}

thread_id_t thread_wait(thread_id_t thread_id) { return Runtime::Get().Wait(thread_id); }

thread_id_t thread_waitid(int id_type, thread_id_t id) {
  switch (id_type) {
    case P_THREAD:
      return id == kInvalidThreadId ? kInvalidThreadId : thread_wait(id);
    case P_THREAD_ALL:
      return thread_wait(kInvalidThreadId);
    default:
      return kInvalidThreadId;
  }
}

thread_id_t thread_get_id() { return sched::CurrentTcbOrAdopt()->id; }

int thread_stop(thread_id_t thread_id) {
  // Adopt only when the calling kernel thread is actually the target: paths
  // aimed at another thread just need the registry, not a TCB of their own.
  Tcb* self = sched::CurrentTcb();
  if (thread_id == kInvalidThreadId || (self != nullptr && thread_id == self->id)) {
    if (self == nullptr) {
      (void)sched::CurrentTcbOrAdopt();
    }
    sched::StopSelf();
    return 0;
  }
  Runtime& rt = Runtime::Get();
  for (;;) {
    bool done = false;
    bool retry = false;
    bool found = rt.WithThread(thread_id, [&](Tcb* target) {
      SpinLockGuard guard(target->state_lock);
      switch (target->state.load(std::memory_order_acquire)) {
        case ThreadState::kRunnable:
          if (!target->IsBound() && rt.queues().Remove(target)) {
            target->state.store(ThreadState::kStopped, std::memory_order_release);
            done = true;
          } else {
            // Bound wake-pending or being dispatched right now: ask it to stop
            // at its next safe point and wait.
            target->stop_requested.store(true, std::memory_order_release);
            retry = true;
          }
          break;
        case ThreadState::kRunning:
          target->stop_requested.store(true, std::memory_order_release);
          retry = true;
          break;
        case ThreadState::kBlocked:
          // A blocked thread is not running; pend the stop so a wakeup parks it.
          target->stop_requested.store(true, std::memory_order_release);
          done = true;
          break;
        case ThreadState::kStopped:
          done = true;
          break;
        default:
          done = true;  // exiting/exited: nothing left to stop
          break;
      }
    });
    if (!found) {
      return -1;
    }
    if (done) {
      return 0;
    }
    if (retry) {
      // Let the target reach a safe point. On a single LWP this yield is what
      // gives it the chance to run.
      sched::Yield();
    }
  }
}

int thread_continue(thread_id_t thread_id) {
  if (thread_id == kInvalidThreadId) {
    return -1;  // cannot continue the calling (running) thread
  }
  bool found = Runtime::Get().WithThread(thread_id, [](Tcb* target) {
    target->stop_requested.store(false, std::memory_order_relaxed);
    // Still under the registry lock, so the target cannot be reclaimed. Of
    // concurrent continues only one finds it kStopped and enqueues it; two
    // enqueues would run it on two LWPs at once.
    if (sched::MakeRunnable(target, ThreadState::kStopped)) {
      Trace::Record(TraceEvent::kContinue, target->id, 0);
    }
  });
  return found ? 0 : -1;
}

int thread_priority(thread_id_t thread_id, int priority) {
  if (priority < 0) {
    return -1;
  }
  Tcb* self = sched::CurrentTcb();
  if (thread_id == kInvalidThreadId || (self != nullptr && thread_id == self->id)) {
    if (self == nullptr) {
      self = sched::CurrentTcbOrAdopt();
    }
    int old = self->priority.exchange(priority, std::memory_order_relaxed);
    return old;
  }
  Runtime& rt = Runtime::Get();
  int old = -1;
  bool requeue = false;
  Tcb* target_tcb = nullptr;
  bool found = rt.WithThread(thread_id, [&](Tcb* target) {
    SpinLockGuard guard(target->state_lock);
    old = target->priority.exchange(priority, std::memory_order_relaxed);
    // A queued thread must move to its new priority level.
    if (target->state.load(std::memory_order_acquire) == ThreadState::kRunnable &&
        !target->IsBound() && rt.queues().Remove(target)) {
      requeue = true;
      target_tcb = target;
    }
  });
  if (!found) {
    return -1;
  }
  if (requeue) {
    // Re-placed at the new level (no wake affinity — this is a requeue, and a
    // raised priority may route it to the shared overflow queue).
    rt.EnqueueRunnable(target_tcb, /*wake_affinity=*/false);
  }
  return old;
}

void thread_yield() {
  (void)sched::CurrentTcbOrAdopt();
  sched::Yield();
}

void thread_poll() {
  (void)sched::CurrentTcbOrAdopt();
  sched::SafePoint();
}

namespace {

// Copies a name into a TCB under its state lock (names are small; the lock
// keeps concurrent get/set readable).
void CopyNameLocked(Tcb* tcb, const char* name) {
  SpinLockGuard guard(tcb->state_lock);
  size_t i = 0;
  for (; name[i] != '\0' && i < sizeof(tcb->name) - 1; ++i) {
    tcb->name[i] = name[i];
  }
  tcb->name[i] = '\0';
}

}  // namespace

int thread_setname(thread_id_t thread_id, const char* name) {
  if (name == nullptr) {
    return -1;
  }
  Tcb* self = sched::CurrentTcb();
  if (thread_id == kInvalidThreadId || (self != nullptr && thread_id == self->id)) {
    if (self == nullptr) {
      self = sched::CurrentTcbOrAdopt();
    }
    CopyNameLocked(self, name);
    return 0;
  }
  bool found = Runtime::Get().WithThread(
      thread_id, [name](Tcb* target) { CopyNameLocked(target, name); });
  return found ? 0 : -1;
}

int thread_getname(thread_id_t thread_id, char* buf, size_t size) {
  if (buf == nullptr || size == 0) {
    return -1;
  }
  Tcb* self = sched::CurrentTcb();
  auto copy_out = [buf, size](Tcb* tcb) {
    SpinLockGuard guard(tcb->state_lock);
    size_t i = 0;
    for (; tcb->name[i] != '\0' && i < size - 1; ++i) {
      buf[i] = tcb->name[i];
    }
    buf[i] = '\0';
  };
  if (thread_id == kInvalidThreadId || (self != nullptr && thread_id == self->id)) {
    if (self == nullptr) {
      self = sched::CurrentTcbOrAdopt();
    }
    copy_out(self);
    return 0;
  }
  bool found = Runtime::Get().WithThread(thread_id, copy_out);
  return found ? 0 : -1;
}

}  // namespace sunmt
