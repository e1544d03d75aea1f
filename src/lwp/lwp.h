// Lightweight processes (LWPs) — the kernel-supported level of the two-level model.
//
// An LWP is "a virtual CPU which is available for executing code or system calls":
// it is separately dispatched by the (host) kernel, may block in independent system
// calls, and runs in parallel on a multiprocessor. Here each LWP is carried by one
// kernel thread. The LWP owns exactly the per-LWP state the paper enumerates:
//
//   - LWP ID
//   - register state        -> the kernel thread's registers + a scheduler Context
//   - signal mask           -> kept per thread (Tcb::sigmask), as the package does
//   - alternate signal stack -> flag + range honored by src/signal
//   - virtual time alarms   -> two interval timers (user / user+system) run by the LWP clock
//   - user and system CPU usage
//   - profiling state       -> per-tick bucket increments into a (possibly shared) buffer
//   - scheduling class and priority (priocntl analogue)
//
// Threads are multiplexed on LWPs by src/core; this module knows nothing about
// threads except an opaque `current_thread` slot, the ON-PROC slot
// (src/lwp/onproc.h) where the dispatcher publishes the running thread's id,
// and the dispatch callback.

#ifndef SUNMT_SRC_LWP_LWP_H_
#define SUNMT_SRC_LWP_LWP_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <ctime>
#include <thread>

#include "src/arch/context.h"
#include "src/util/intrusive_list.h"

namespace sunmt {

// Scheduling classes, mirroring the paper's priocntl() discussion (timeshare,
// real-time, and the new "gang" class for fine-grain parallelism).
enum class SchedClass : uint8_t {
  kTimeshare = 0,
  kRealtime = 1,
  kGang = 2,
};

// Per-LWP resource usage snapshot.
struct LwpUsage {
  int64_t user_ns = 0;         // CPU consumed by the LWP (thread cputime clock)
  int64_t system_wait_ns = 0;  // wall time spent blocked inside "kernel" waits
  uint64_t kernel_calls = 0;   // number of kernel-call brackets entered
};

// One of the two per-LWP virtual interval timers ("one decrements in LWP user
// time and the other decrements in both LWP user time and when the system is
// running on behalf of the LWP").
enum class LwpTimerKind : uint8_t {
  kVirtual = 0,  // user time only        -> SIGVTALRM analogue
  kProf = 1,     // user + "system" time  -> SIGPROF analogue
};

class Lwp {
 public:
  // Signature of the dispatch loop supplied by the threads package. Runs on the
  // LWP's kernel thread; when it returns, the LWP terminates.
  using MainFn = void (*)(Lwp* self, void* arg);

  // Called on the clock tick when a virtual timer expires. The callback is the
  // delivery: nothing routes it into the signal layer, so it runs on the
  // runtime's service thread and must be short.
  using TimerFn = void (*)(Lwp* lwp, LwpTimerKind kind, void* cookie);

  // Creates an LWP that is not yet running; call Start() to launch its kernel
  // thread. Two-phase so callers can publish the Lwp* (e.g. into a TCB's
  // bound_lwp field) before any code runs on it.
  explicit Lwp(int id);

  // Adopts the *calling* kernel thread as this LWP ("one lightweight process is
  // created by the kernel when a program is started"): no new thread is spawned,
  // the caller becomes the LWP. Used for the initial thread and for foreign
  // kernel threads that call into the threads package.
  struct AdoptCurrentThreadTag {};
  Lwp(int id, AdoptCurrentThreadTag);

  ~Lwp();
  Lwp(const Lwp&) = delete;
  Lwp& operator=(const Lwp&) = delete;

  // Launches the kernel thread running main(this, arg). Call exactly once, and
  // never on an adopted LWP.
  void Start(MainFn main, void* arg);

  int id() const { return id_; }
  bool adopted() const { return adopted_; }

  // This LWP's slot in the ON-PROC table (src/lwp/onproc.h), allocated for the
  // LWP's whole lifetime (-1 if the table was full). The threads package
  // publishes the running thread's id there around each dispatch: it is the
  // one record other kernel threads read of which thread this LWP runs.
  int onproc_slot() const { return onproc_slot_; }

  // ---- Parking (the only way an LWP idles) -------------------------------
  // Park blocks the calling kernel thread until a token is available; Unpark
  // deposits a token (at most one is retained). Callable from any thread.
  void Park();
  void Unpark();

  // ---- Scheduling class & priority (priocntl analogue) -------------------
  void SetScheduling(SchedClass cls, int priority);
  SchedClass sched_class() const { return sched_class_; }
  int sched_priority() const { return sched_priority_; }
  // Binds the LWP to a CPU ("the process has asked the system to bind one of
  // its LWPs to a CPU"). Best-effort: returns false if the host refuses.
  bool BindToCpu(int cpu);

  // ---- Kernel-call accounting ---------------------------------------------
  // Brackets any operation that blocks this LWP in the (host) kernel: the thread
  // executing on it stays bound for the duration, and indefinite waits feed the
  // SIGWAITING watchdog. Must be called on this LWP's kernel thread.
  void EnterKernelWait(bool indefinite);
  void ExitKernelWait();
  bool InKernelWait() const { return wait_depth_.load(std::memory_order_acquire) > 0; }
  bool InIndefiniteWait() const { return indefinite_wait_.load(std::memory_order_acquire); }

  // ---- Usage, timers, profiling -------------------------------------------
  LwpUsage Usage() const;

  // Arms (interval_ns > 0) or disarms (interval_ns == 0) a virtual timer. The
  // timer runs down only the time after it is armed. Arming one starts the
  // clock; it stops once nothing needs it (see LwpRegistry::ClockNeeded).
  void SetTimer(LwpTimerKind kind, int64_t interval_ns, TimerFn fn, void* cookie);

  // Directs per-tick profiling increments into `buffer[slot % slot_count]`, where
  // slot is chosen by the threads package via set_prof_slot(). Pass nullptr to
  // disable. Buffers may be shared between LWPs ("it may also share one if
  // accumulated information is desired"). A buffer keeps the clock running.
  void SetProfilingBuffer(std::atomic<uint64_t>* buffer, size_t slot_count);
  void set_prof_slot(size_t slot) { prof_slot_.store(slot, std::memory_order_relaxed); }

  // ---- Time-slice preemption support ---------------------------------------
  // The threads package marks when it dispatches a thread onto this LWP; the
  // clock tick compares against the timeslice and sets preempt_pending, which
  // the dispatched thread honors at its next scheduling safe point. The flag
  // lives on the LWP (not the TCB) so the clock tick never touches a TCB
  // that might be mid-reclaim.
  void MarkDispatch(int64_t cpu_now_ns) {
    preempt_pending.store(false, std::memory_order_relaxed);
    dispatch_cpu_ns_.store(cpu_now_ns, std::memory_order_release);
  }
  void ClearDispatch() { dispatch_cpu_ns_.store(-1, std::memory_order_release); }

  std::atomic<bool> preempt_pending{false};

  // Process-wide preemption timeslice (0 disables).
  static void SetPreemptTimeslice(int64_t timeslice_ns);
  static int64_t PreemptTimeslice();

  // ---- Per-LWP signal state (consumed by src/signal) ----------------------
  // "Alternate signal stack and masks for alternate stack disable and onstack"
  // is per-LWP state; only bound threads may use it (the paper rejects carrying
  // it per unbound thread as too expensive).
  std::atomic<bool> has_alt_stack{false};
  void* alt_stack_base = nullptr;  // owned by the bound thread
  size_t alt_stack_size = 0;

  // ---- Slots owned by the threads package ---------------------------------
  // current_thread is only read by this LWP itself; other kernel threads read
  // the ON-PROC slot instead — the TCB behind the pointer lives in a
  // recyclable stack block and may be rebuilt for a new thread once it exits.
  std::atomic<void*> current_thread{nullptr};  // TCB executing on this LWP
  Context sched_ctx;               // the LWP's own (dispatch loop) context
  std::atomic<bool> retire{false}; // dispatch loop should exit when idle
  void* pool = nullptr;            // owning LWP pool, if any
  int sched_shard = -1;            // run-queue shard this pool LWP dispatches from
  ListNode pool_node;              // link in the pool's idle list

  // Link in the global LwpRegistry (managed by Add/Remove; public because the
  // intrusive-list template needs the member pointer at namespace scope).
  ListNode registry_node;

  // True once the kernel thread has exited its main function.
  bool Finished() const { return finished_.load(std::memory_order_acquire); }
  // Blocks until the kernel thread exits. Called before destruction.
  void Join();

  // The LWP currently carrying the calling kernel thread (nullptr off-LWP).
  static Lwp* Current();

  // fork1() child-side reset: detaches the calling kernel thread from its
  // (parent-inherited) LWP so it is re-adopted into the fresh runtime.
  static void DropCurrentAfterFork();

 private:
  friend class LwpRegistry;

  void ThreadMain(MainFn main, void* arg);
  int64_t CpuNowNs() const;  // 0 if the LWP has no CPU clock
  // Armed virtual timers plus a profiling buffer: this LWP's share of the
  // count behind LwpRegistry::ClockNeeded().
  int ClockUses() const;
  void CountClockUses(int before, int after);
  void Tick(int64_t wall_delta_ns);  // one LwpRegistry::ClockTick

  const int id_;
  const int onproc_slot_;
  std::atomic<uint32_t> park_state_{0};  // 0 = no token, 1 = token available
  SchedClass sched_class_ = SchedClass::kTimeshare;
  int sched_priority_ = 0;

  std::atomic<int> wait_depth_{0};
  std::atomic<bool> indefinite_wait_{false};
  std::atomic<int64_t> wait_enter_wall_ns_{0};
  std::atomic<int64_t> system_wait_ns_{0};
  std::atomic<uint64_t> kernel_calls_{0};

  // Timer state, read by the clock tick (armed flags atomic).
  struct VirtualTimer {
    std::atomic<bool> armed{false};
    std::atomic<int64_t> interval_ns{0};
    std::atomic<int64_t> remaining_ns{0};
    TimerFn fn = nullptr;
    void* cookie = nullptr;
  };
  VirtualTimer timers_[2];

  std::atomic<std::atomic<uint64_t>*> prof_buffer_{nullptr};
  std::atomic<size_t> prof_slot_count_{0};
  std::atomic<size_t> prof_slot_{0};

  std::atomic<int64_t> accounted_user_ns_{0};
  std::atomic<int64_t> dispatch_cpu_ns_{-1};
  std::atomic<bool> finished_{false};
  bool adopted_ = false;
  pthread_t pthread_ = {};
  std::atomic<bool> have_pthread_{false};
  clockid_t cpu_clock_ = CLOCK_THREAD_CPUTIME_ID;
  std::atomic<int64_t> last_tick_cpu_ns_{0};
  bool cpu_clock_valid_ = false;

  std::thread kernel_thread_;
};

// Global registry of live LWPs, and the LWP clock that ticks them.
//
// In SunOS one clock interrupt charges each LWP's user time, runs down its
// virtual timers and bumps its profiling buffer. Here the runtime's service
// loop (src/core/runtime.cc) plays the interrupt: every kClockTickNs while
// ClockNeeded(), it calls ClockTick. A process without a runtime gets no ticks.
class LwpRegistry {
 public:
  static void ForEach(void (*fn)(Lwp*, void*), void* cookie);
  static size_t Count();

  // Clock period. SunOS used a 10ms clock; we tick at 5ms for snappier tests.
  static constexpr int64_t kClockTickNs = 5 * 1000 * 1000;
  // True while something needs the clock: a preemption timeslice, an armed
  // virtual timer or a profiling buffer.
  static bool ClockNeeded();
  // Ticks every registered LWP; `wall_delta_ns` is the wall time since the
  // previous tick.
  static void ClockTick(int64_t wall_delta_ns);
  // Ticks delivered so far.
  static uint64_t ClockTicks();

 private:
  friend class Lwp;
  static void Add(Lwp* lwp);
  static void Remove(Lwp* lwp);
};

}  // namespace sunmt

#endif  // SUNMT_SRC_LWP_LWP_H_
