#include "src/lwp/lwp.h"

#include <pthread.h>
#include <sched.h>

#include <new>

#include "src/lwp/onproc.h"
#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/futex.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

thread_local Lwp* g_current_lwp = nullptr;

struct RegistryState {
  SpinLock lock;
  IntrusiveList<Lwp, &Lwp::registry_node> list;
};

RegistryState& Registry() {
  static RegistryState* state = new RegistryState;  // leaked: outlives all LWPs
  return *state;
}

// Sum of Lwp::ClockUses() over the registered LWPs, and the clock's ticks.
std::atomic<int> g_clock_uses{0};
std::atomic<uint64_t> g_clock_ticks{0};
std::atomic<int64_t> g_preempt_timeslice_ns{0};

}  // namespace

Lwp::Lwp(int id) : id_(id), onproc_slot_(onproc::AllocSlot()) {}

Lwp::Lwp(int id, AdoptCurrentThreadTag) : id_(id), onproc_slot_(onproc::AllocSlot()) {
  adopted_ = true;
  g_current_lwp = this;
  pthread_ = pthread_self();
  have_pthread_.store(true, std::memory_order_release);
  if (pthread_getcpuclockid(pthread_self(), &cpu_clock_) == 0) {
    cpu_clock_valid_ = true;
  }
  LwpRegistry::Add(this);
}

void Lwp::Start(MainFn main, void* arg) {
  SUNMT_CHECK(!adopted_);
  SUNMT_CHECK(!kernel_thread_.joinable());
  kernel_thread_ = std::thread([this, main, arg] { ThreadMain(main, arg); });
}

Lwp::~Lwp() {
  onproc::FreeSlot(onproc_slot_);
  if (adopted_) {
    LwpRegistry::Remove(this);
    if (g_current_lwp == this) {
      g_current_lwp = nullptr;
    }
    return;
  }
  Join();
}

void Lwp::Join() {
  if (kernel_thread_.joinable()) {
    kernel_thread_.join();
  }
}

void Lwp::ThreadMain(MainFn main, void* arg) {
  g_current_lwp = this;
  pthread_ = pthread_self();
  have_pthread_.store(true, std::memory_order_release);
  // Per-LWP CPU clock, used by usage accounting and the virtual timers.
  if (pthread_getcpuclockid(pthread_self(), &cpu_clock_) == 0) {
    cpu_clock_valid_ = true;
  }
  LwpRegistry::Add(this);
  main(this, arg);
  LwpRegistry::Remove(this);
  finished_.store(true, std::memory_order_release);
  g_current_lwp = nullptr;
}

Lwp* Lwp::Current() { return g_current_lwp; }

void Lwp::DropCurrentAfterFork() {
  // The registry still lists the parent's LWPs and the ON-PROC table still
  // holds their slots; rebuild both empty. Entries are stale copies whose
  // kernel threads do not exist in this process.
  RegistryState& r = Registry();
  new (&r) RegistryState();
  onproc::ResetAfterFork();
  g_clock_uses.store(0, std::memory_order_relaxed);
  g_current_lwp = nullptr;
}

void Lwp::Park() {
  SUNMT_DCHECK(Current() == this);
  for (;;) {
    if (park_state_.exchange(0, std::memory_order_acquire) == 1) {
      return;  // consumed a token
    }
    FutexWait(&park_state_, 0);
  }
}

void Lwp::Unpark() {
  if (park_state_.exchange(1, std::memory_order_release) == 0) {
    FutexWake(&park_state_, 1);
  }
}

void Lwp::SetScheduling(SchedClass cls, int priority) {
  sched_class_ = cls;
  sched_priority_ = priority;
  // Best-effort mapping onto the host: real-time LWPs ask for SCHED_RR. The
  // recorded class/priority is authoritative for the threads package regardless
  // of whether the host honors the request (it typically needs privileges).
  if (cls == SchedClass::kRealtime && have_pthread_.load(std::memory_order_acquire)) {
    struct sched_param param = {};
    param.sched_priority = sched_get_priority_min(SCHED_RR);
    (void)pthread_setschedparam(pthread_, SCHED_RR, &param);
  }
}

bool Lwp::BindToCpu(int cpu) {
  if (!have_pthread_.load(std::memory_order_acquire)) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_, sizeof(set), &set) == 0;
}

void Lwp::EnterKernelWait(bool indefinite) {
  SUNMT_DCHECK(Current() == this);
  if (wait_depth_.fetch_add(1, std::memory_order_acq_rel) == 0) {
    wait_enter_wall_ns_.store(MonotonicNowNs(), std::memory_order_relaxed);
    indefinite_wait_.store(indefinite, std::memory_order_release);
  }
  kernel_calls_.fetch_add(1, std::memory_order_relaxed);
}

void Lwp::ExitKernelWait() {
  SUNMT_DCHECK(Current() == this);
  if (wait_depth_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    indefinite_wait_.store(false, std::memory_order_release);
    int64_t entered = wait_enter_wall_ns_.load(std::memory_order_relaxed);
    system_wait_ns_.fetch_add(MonotonicNowNs() - entered, std::memory_order_relaxed);
  }
}

int64_t Lwp::CpuNowNs() const {
  struct timespec ts;
  if (cpu_clock_valid_ && clock_gettime(cpu_clock_, &ts) == 0) {
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }
  return 0;
}

LwpUsage Lwp::Usage() const {
  LwpUsage usage;
  if (cpu_clock_valid_ && !finished_.load(std::memory_order_acquire)) {
    usage.user_ns = CpuNowNs();
  } else {
    usage.user_ns = accounted_user_ns_.load(std::memory_order_relaxed);
  }
  usage.system_wait_ns = system_wait_ns_.load(std::memory_order_relaxed);
  usage.kernel_calls = kernel_calls_.load(std::memory_order_relaxed);
  return usage;
}

int Lwp::ClockUses() const {
  return timers_[0].armed.load(std::memory_order_relaxed) +
         timers_[1].armed.load(std::memory_order_relaxed) +
         (prof_buffer_.load(std::memory_order_relaxed) != nullptr);
}

void Lwp::CountClockUses(int before, int after) {
  // An LWP taking its first use restarts its CPU sample: the clock may have
  // been stopped, and a timer runs down only the time after it is armed.
  if (before == 0 && after > 0) {
    last_tick_cpu_ns_.store(CpuNowNs(), std::memory_order_relaxed);
  }
  g_clock_uses.fetch_add(after - before, std::memory_order_relaxed);
}

void Lwp::SetTimer(LwpTimerKind kind, int64_t interval_ns, TimerFn fn, void* cookie) {
  VirtualTimer& timer = timers_[static_cast<int>(kind)];
  int uses = ClockUses();
  timer.armed.store(false, std::memory_order_release);
  timer.fn = fn;
  timer.cookie = cookie;
  timer.interval_ns.store(interval_ns, std::memory_order_relaxed);
  timer.remaining_ns.store(interval_ns, std::memory_order_relaxed);
  if (interval_ns > 0) {
    SUNMT_CHECK(fn != nullptr);
    timer.armed.store(true, std::memory_order_release);
  }
  CountClockUses(uses, ClockUses());
}

void Lwp::SetProfilingBuffer(std::atomic<uint64_t>* buffer, size_t slot_count) {
  int uses = ClockUses();
  prof_slot_count_.store(slot_count, std::memory_order_relaxed);
  prof_buffer_.store(buffer, std::memory_order_release);
  CountClockUses(uses, ClockUses());
}

void Lwp::SetPreemptTimeslice(int64_t timeslice_ns) {
  g_preempt_timeslice_ns.store(timeslice_ns, std::memory_order_release);
}

int64_t Lwp::PreemptTimeslice() {
  return g_preempt_timeslice_ns.load(std::memory_order_acquire);
}

void Lwp::Tick(int64_t wall_delta_ns) {
  int64_t now_cpu = CpuNowNs();
  int64_t last = last_tick_cpu_ns_.exchange(now_cpu, std::memory_order_relaxed);
  int64_t user_delta_ns = now_cpu > last ? now_cpu - last : 0;
  accounted_user_ns_.fetch_add(user_delta_ns, std::memory_order_relaxed);

  // Time-slice accounting: if the dispatched thread has burned more CPU than
  // the configured timeslice, ask it to yield at its next safe point.
  int64_t slice = g_preempt_timeslice_ns.load(std::memory_order_acquire);
  if (slice > 0) {
    int64_t mark = dispatch_cpu_ns_.load(std::memory_order_acquire);
    if (mark >= 0 && now_cpu - mark > slice) {
      preempt_pending.store(true, std::memory_order_release);
    }
  }

  // The kVirtual timer decrements in LWP user time only; kProf also decrements
  // while "the system is running on behalf of the LWP" (our kernel-wait brackets).
  int64_t prof_delta = user_delta_ns + (InKernelWait() ? wall_delta_ns : 0);
  int64_t deltas[2] = {user_delta_ns, prof_delta};
  for (int i = 0; i < 2; ++i) {
    VirtualTimer& timer = timers_[i];
    if (!timer.armed.load(std::memory_order_acquire) || deltas[i] <= 0) {
      continue;
    }
    int64_t remaining =
        timer.remaining_ns.fetch_sub(deltas[i], std::memory_order_relaxed) - deltas[i];
    if (remaining <= 0) {
      timer.remaining_ns.store(timer.interval_ns.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      timer.fn(this, static_cast<LwpTimerKind>(i), timer.cookie);
    }
  }

  // Profiling: one bucket increment per tick in which the LWP consumed user time
  // ("profiling information is updated at each clock tick in LWP user time").
  std::atomic<uint64_t>* buffer = prof_buffer_.load(std::memory_order_acquire);
  if (buffer != nullptr && user_delta_ns > 0) {
    size_t count = prof_slot_count_.load(std::memory_order_relaxed);
    if (count > 0) {
      size_t slot = prof_slot_.load(std::memory_order_relaxed) % count;
      buffer[slot].fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void LwpRegistry::Add(Lwp* lwp) {
  RegistryState& r = Registry();
  SpinLockGuard guard(r.lock);
  r.list.PushBack(lwp);
}

void LwpRegistry::Remove(Lwp* lwp) {
  // A departing LWP's timers and buffer stop needing the clock.
  g_clock_uses.fetch_sub(lwp->ClockUses(), std::memory_order_relaxed);
  RegistryState& r = Registry();
  SpinLockGuard guard(r.lock);
  r.list.Remove(lwp);
}

void LwpRegistry::ForEach(void (*fn)(Lwp*, void*), void* cookie) {
  RegistryState& r = Registry();
  SpinLockGuard guard(r.lock);
  r.list.ForEach([fn, cookie](Lwp* lwp) { fn(lwp, cookie); });
}

size_t LwpRegistry::Count() {
  RegistryState& r = Registry();
  SpinLockGuard guard(r.lock);
  return r.list.Size();
}

bool LwpRegistry::ClockNeeded() {
  return g_clock_uses.load(std::memory_order_relaxed) > 0 ||
         Lwp::PreemptTimeslice() > 0;
}

void LwpRegistry::ClockTick(int64_t wall_delta_ns) {
  ForEach([](Lwp* lwp, void* delta) { lwp->Tick(*static_cast<int64_t*>(delta)); },
          &wall_delta_ns);
  g_clock_ticks.fetch_add(1, std::memory_order_relaxed);
}

uint64_t LwpRegistry::ClockTicks() {
  return g_clock_ticks.load(std::memory_order_relaxed);
}

}  // namespace sunmt
