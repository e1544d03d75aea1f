// The timer engine: per-LWP-sharded hierarchical timing wheels (wheel.h) with
// pooled entries. Every change to an entry's state happens under its shard's
// spinlock.
//
// Engine shape:
//
//   * Arm is O(1) and touches only per-shard state: the calling kernel thread
//     (i.e. LWP — shards are keyed by the same round-robin token as the stats
//     shards) takes its shard's spinlock once, pops a pooled entry and buckets
//     it in the shard's wheel. No malloc, and a futex kick only when the new
//     deadline beats the service loop's published sweep horizon
//     (Runtime::WakeServiceBy).
//   * Cancel is O(1) too: decode the id, lock that shard, and unlink an armed
//     entry from its wheel slot straight onto the free list. Nothing is left
//     behind for a later sweep to reap.
//   * The runtime's service loop sweeps each shard (SweepTimerWheel, a no-op
//     until the first arm): in one critical section it advances the wheel and
//     claims every due entry Armed->Firing, BEFORE any callback runs, so a
//     cancel racing the fire fails (the timed-wait ack protocol in
//     timed_wait.h depends on that). It fires outside all locks, then
//     re-arms or frees the fired entries under the lock. A claimed callback
//     fire always runs even if a cancel lands mid-flight (the -1 return told
//     the caller the fire owns the context); the mid-flight cancel only
//     suppresses a periodic re-arm.
//
// Entry states (all transitions under the shard lock):
//
//     Free ->(arm)-> Armed
//     Armed ->(cancel)-> Free with generation+1          cancel returns 0
//     Armed ->(sweep claim)-> Firing
//     Firing ->(cancel)-> FiringCancelled                cancel returns -1
//                                   (0 for a periodic signal timer)
//     Firing ->(sweep, periodic)-> Armed (same generation: the id stays valid)
//     Firing/FiringCancelled ->(sweep)-> Free with generation+1
//
// timer ids pack (generation << 24) | (pool index << 4) | shard, so cancel
// finds the entry without any map, and a stale id from a recycled entry fails
// the generation check instead of cancelling a stranger.

#include "src/timer/timer.h"

#include <algorithm>
#include <atomic>
#include <new>

#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/inject/inject.h"
#include "src/signal/signal.h"
#include "src/stats/stats.h"
#include "src/timer/wheel.h"
#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/spinlock.h"

namespace sunmt {
namespace {

enum class FireKind : uint8_t {
  kSignalThread,   // thread_kill(target, sig)
  kSignalProcess,  // signal_raise_process(sig) — the per-process interval timer
  kCallback,       // fn(cookie, arg) on the service thread — timed waits, sleeps
};

enum class EntryState : uint8_t { kFree, kArmed, kFiring, kFiringCancelled };

// ---- Entry -------------------------------------------------------------------

struct TimerEntry {
  WheelNode node;  // must stay first: the sweep casts WheelNode* back
  // Written under the shard lock. The fire pass reads it without the lock to
  // see a mid-flight cancel; every other field is read and written under the
  // lock, or by the fire pass while the entry is claimed.
  std::atomic<EntryState> state{EntryState::kFree};
  // Bumped each time the entry goes back on the free list; starts at 1 so no
  // packed id ever equals kInvalidTimerId.
  uint64_t gen = 1;
  uint32_t index = 0;               // pool index within the owning shard
  TimerEntry* free_next = nullptr;  // shard free list
  int64_t deadline_ns = 0;
  int64_t period_ns = 0;  // 0 = one-shot
  FireKind kind = FireKind::kCallback;
  int sig = 0;
  thread_id_t target = 0;
  void (*callback)(void*, uint64_t) = nullptr;
  void* cookie = nullptr;
  uint64_t callback_arg = 0;
};

inline TimerEntry* EntryFromNode(WheelNode* node) {
  return reinterpret_cast<TimerEntry*>(node);  // node is the first member
}

// One tick = 2^20 ns ≈ 1.05 ms; the wheel spans 64^4 ticks ≈ 5.1 hours before
// the beyond-horizon parking slot kicks in.
constexpr int kTickShift = 20;

inline uint64_t TickForDeadline(int64_t deadline_ns) {
  // Ceiling: firing happens when now >> shift reaches the tick, i.e. at
  // now >= tick << shift >= deadline — a wheel timer is never early.
  return (static_cast<uint64_t>(deadline_ns) + ((1ull << kTickShift) - 1)) >>
         kTickShift;
}

constexpr int kShards = 8;
constexpr uint32_t kChunkSize = 1024;   // entries per lazily allocated chunk
constexpr uint32_t kMaxChunks = 1024;   // 1M pooled entries per shard

// id layout: (generation << 24) | (index << 4) | shard.
constexpr int kIdShardBits = 4;
constexpr int kIdIndexBits = 20;
constexpr uint64_t kIdShardMask = (1ull << kIdShardBits) - 1;
constexpr uint64_t kIdIndexMask = (1ull << kIdIndexBits) - 1;
constexpr int kIdGenShift = kIdShardBits + kIdIndexBits;
static_assert(kChunkSize * kMaxChunks == (1u << kIdIndexBits),
              "pool capacity must match the id's index field");
static_assert(kShards <= (1 << kIdShardBits), "shard field too small");

// Everything in a shard is guarded by its lock.
struct alignas(64) TimerShard {
  SpinLock lock;
  TimingWheel wheel;
  TimerEntry* free_list = nullptr;
  uint32_t chunk_count = 0;
  uint32_t carved = 0;  // next never-used pool index
  TimerEntry* chunks[kMaxChunks] = {};
  uint64_t arms = 0;
  uint64_t cancels = 0;
  uint64_t reaps = 0;
  uint64_t pool_free = 0;
  uint64_t pool_alloc = 0;
};

struct WheelState {
  TimerShard shards[kShards];
  std::atomic<uint64_t> fires{0};
  // Guards the interval timer's period and id. Lock order: interval_lock,
  // then a shard lock; no fire path takes it.
  SpinLock interval_lock;
  timer_id_t process_interval_timer = kInvalidTimerId;
  int64_t process_interval_ns = 0;

  WheelState() {
    uint64_t tick = static_cast<uint64_t>(MonotonicNowNs()) >> kTickShift;
    for (TimerShard& sh : shards) {
      sh.wheel.InitCurTick(tick);
    }
  }
};

WheelState& Wheel() {
  static WheelState* state = new WheelState;  // leaked, outlives everything
  return *state;
}

// Set by the first arm, once the wheel exists. Until then the service loop's
// sweeps find nothing to do and build no wheel, and neither does a fork1()
// child's repair.
std::atomic<bool> g_armed{false};

// Delivers one expiry. Returns false when the timer must not re-arm: the
// thread its signal targets has exited.
bool FireEntry(const TimerEntry* entry) {
  // Delays here race timer delivery against concurrent waker/cancel paths —
  // the timeout-vs-wake window of the timed sync waits.
  inject::Perturb(inject::kTimerCallback);
  Wheel().fires.fetch_add(1, std::memory_order_relaxed);
  switch (entry->kind) {
    case FireKind::kSignalThread:
      return thread_kill(entry->target, entry->sig) == 0;
    case FireKind::kSignalProcess:
      signal_raise_process(entry->sig);
      break;
    case FireKind::kCallback:
      entry->callback(entry->cookie, entry->callback_arg);
      break;
  }
  return true;
}

// ---- Arm / cancel / sweep ----------------------------------------------------

inline timer_id_t MakeId(uint64_t gen, uint32_t index, int shard) {
  return (gen << kIdGenShift) | (static_cast<uint64_t>(index) << kIdShardBits) |
         static_cast<uint64_t>(shard);
}

// Pops a pooled entry, carving a fresh chunk when the free list is dry.
// Returns nullptr only when the shard has hit its 1M-entry capacity.
TimerEntry* PopFreeLocked(TimerShard& sh) {
  if (sh.free_list != nullptr) {
    TimerEntry* e = sh.free_list;
    sh.free_list = e->free_next;
    --sh.pool_free;
    return e;
  }
  if (sh.carved >= kChunkSize * sh.chunk_count) {
    if (sh.chunk_count == kMaxChunks) {
      return nullptr;
    }
    auto* chunk = new TimerEntry[kChunkSize];
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].index = sh.chunk_count * kChunkSize + i;
    }
    sh.chunks[sh.chunk_count++] = chunk;
  }
  TimerEntry* e = &sh.chunks[sh.carved / kChunkSize][sh.carved % kChunkSize];
  ++sh.carved;
  ++sh.pool_alloc;
  return e;
}

// Ends an entry's incarnation: a later cancel of its id finds another
// generation and fails.
void FreeLocked(TimerShard& sh, TimerEntry* e) {
  ++e->gen;
  e->state.store(EntryState::kFree, std::memory_order_relaxed);
  e->free_next = sh.free_list;
  sh.free_list = e;
  ++sh.pool_free;
  ++sh.reaps;
}

// Sweeps one shard: advance its wheel and claim the due batch in one critical
// section, fire outside the lock, then re-arm periodics and free everything
// else in one relock. Returns the shard's next event tick (kNoEvent when
// empty).
uint64_t ProcessShard(TimerShard& sh, uint64_t now_tick) {
  WheelNode due;
  WheelListInit(&due);
  sh.lock.Lock();
  // Delays here hold the shard mid-sweep: the window where arms pile into a
  // slot being turned over and cancels wait to find their entry claimed.
  inject::Perturb(inject::kTimerWheel);
  sh.wheel.Advance(now_tick, &due);
  // Claim — BEFORE any callback runs. From the moment an entry leaves the
  // wheel a cancel must fail (return -1), because the timed-wait ack protocol
  // keys off that: a failed cancel sends the waiter into TimedWait::AwaitFire
  // to spin for the fire's timeout_fire_seq ack.
  for (WheelNode* node = due.next; node != &due; node = node->next) {
    EntryFromNode(node)->state.store(EntryState::kFiring,
                                     std::memory_order_relaxed);
  }
  sh.lock.Unlock();

  // Fire pass — outside every lock; delivery takes package locks of its own.
  // A cancel landing now flips Firing->FiringCancelled; a claimed callback
  // fire still runs (the timed-wait ack protocol: the cancelling waiter is
  // already spinning in TimedWait::AwaitFire for the fire's timeout_fire_seq
  // bump, and the fire owns the callback context). Signal fires carry no ack
  // and ARE suppressed on a mid-flight cancel: the claim-to-fire window can
  // stretch across a descheduled sweep, and a disarmed interval timer's
  // signal landing after the caller restored SIG_DEFAULT would terminate the
  // process.
  WheelNode rearm;
  WheelListInit(&rearm);
  WheelNode done;
  WheelListInit(&done);
  while (!WheelListEmpty(&due)) {
    WheelNode* node = due.next;
    WheelListRemove(node);
    TimerEntry* e = EntryFromNode(node);
    bool cancelled_in_flight = e->state.load(std::memory_order_relaxed) ==
                               EntryState::kFiringCancelled;
    bool again = e->period_ns > 0;
    if (e->kind == FireKind::kCallback || !cancelled_in_flight) {
      again = FireEntry(e) && again;
    }
    WheelListPushBack(again ? &rearm : &done, node);
  }

  sh.lock.Lock();
  for (WheelNode* list : {&rearm, &done}) {
    while (!WheelListEmpty(list)) {
      WheelNode* node = list->next;
      WheelListRemove(node);
      TimerEntry* e = EntryFromNode(node);
      if (list == &rearm &&
          e->state.load(std::memory_order_relaxed) == EntryState::kFiring) {
        // Periodic and not cancelled mid-fire: same generation, so the
        // caller's id stays valid across re-arms.
        e->deadline_ns += e->period_ns;
        node->expiry_tick = TickForDeadline(e->deadline_ns);
        sh.wheel.Insert(node);
        e->state.store(EntryState::kArmed, std::memory_order_relaxed);
      } else {
        FreeLocked(sh, e);  // one-shot done, or no re-arm wanted
      }
    }
  }
  uint64_t next_tick = sh.wheel.NextEventTick();
  sh.lock.Unlock();
  return next_tick;
}

timer_id_t ArmEntry(int64_t delay_ns, int64_t period_ns, FireKind kind, int sig,
                    thread_id_t target, void (*fn)(void*, uint64_t),
                    void* cookie, uint64_t arg) {
  Runtime::Get();  // its service loop sweeps the wheel
  WheelState& st = Wheel();
  if (!g_armed.load(std::memory_order_relaxed)) {
    g_armed.store(true, std::memory_order_release);  // later arms write nothing
  }
  int64_t deadline = MonotonicNowNs() + delay_ns;
  int home = static_cast<int>(stats_internal::ShardToken() % kShards);
  timer_id_t id = kInvalidTimerId;
  // Probe past a full shard instead of failing: no timed-wait caller checks
  // for kInvalidTimerId (an arm that "fails" would strand its waiter spinning
  // for a fire that never comes), so arming is infallible up to the absurd
  // 8M-live-timer design capacity.
  for (int probe = 0; probe < kShards && id == kInvalidTimerId; ++probe) {
    int shard_idx = (home + probe) % kShards;
    TimerShard& sh = st.shards[shard_idx];
    SpinLockGuard guard(sh.lock);
    TimerEntry* e = PopFreeLocked(sh);
    if (e == nullptr) {
      continue;
    }
    e->deadline_ns = deadline;
    e->period_ns = period_ns;
    e->kind = kind;
    e->sig = sig;
    e->target = target;
    e->callback = fn;
    e->cookie = cookie;
    e->callback_arg = arg;
    e->node.expiry_tick = TickForDeadline(deadline);
    sh.wheel.Insert(&e->node);
    e->state.store(EntryState::kArmed, std::memory_order_relaxed);
    ++sh.arms;
    id = MakeId(e->gen, e->index, shard_idx);
  }
  SUNMT_CHECK(id != kInvalidTimerId);
  Runtime::WakeServiceBy(deadline);
  return id;
}

// thread_sleep_ns()'s one-entry wait, on the sleeper's stack. The fire's
// last touch is the unlock: after it the sleeper may return and pop the frame.
struct Sleep {
  SpinLock lock;
  Tcb* sleeper = nullptr;  // set under `lock` just before the sleeper blocks
  bool fired = false;
};

void SleepFire(void* cookie, uint64_t) {
  auto* sleep = static_cast<Sleep*>(cookie);
  Tcb* sleeper;
  {
    SpinLockGuard guard(sleep->lock);
    sleep->fired = true;
    sleeper = sleep->sleeper;
  }
  // No sleeper yet: it has not blocked, and will see `fired` instead.
  if (sleeper != nullptr) {
    sched::Wake(sleeper);
  }
}

}  // namespace

// Any engine structure may have been copied mid-mutation; rebuild everything
// in place (parent entries and pool chunks leak in the child — the safe
// direction). The child's rebuilt runtime starts a service loop that sweeps
// the fresh wheel.
void TimerResetAfterFork() {
  if (g_armed.load(std::memory_order_acquire)) {
    new (&Wheel()) WheelState();
  }
}

int64_t SweepTimerWheel(int64_t now_ns) {
  if (!g_armed.load(std::memory_order_acquire)) {
    return INT64_MAX;
  }
  uint64_t now_tick = static_cast<uint64_t>(now_ns) >> kTickShift;
  int64_t next_ns = INT64_MAX;
  for (TimerShard& sh : Wheel().shards) {
    uint64_t next_tick = ProcessShard(sh, now_tick);
    if (next_tick != TimingWheel::kNoEvent) {
      next_ns = std::min(next_ns, static_cast<int64_t>(next_tick << kTickShift));
    }
  }
  return next_ns;
}

timer_id_t timer_arm(int64_t first_delay_ns, int64_t period_ns, int sig,
                     thread_id_t target) {
  if (first_delay_ns < 0 || period_ns < 0 || sig < 1 || sig > SIG_MAX) {
    return kInvalidTimerId;
  }
  return ArmEntry(first_delay_ns, period_ns, FireKind::kSignalThread, sig,
                  target != 0 ? target : thread_get_id(), nullptr, nullptr, 0);
}

int timer_cancel(timer_id_t id) {
  uint64_t shard_idx = id & kIdShardMask;
  uint32_t index = static_cast<uint32_t>((id >> kIdShardBits) & kIdIndexMask);
  uint64_t gen = id >> kIdGenShift;
  if (gen == 0 || shard_idx >= static_cast<uint64_t>(kShards)) {
    return -1;
  }
  TimerShard& sh = Wheel().shards[shard_idx];
  // Stretches the cancel-vs-claim race: the sweep may be claiming this very
  // entry right now.
  inject::Perturb(inject::kTimerWheel);
  SpinLockGuard guard(sh.lock);
  if (index >= sh.carved) {
    return -1;  // never armed
  }
  TimerEntry* e = &sh.chunks[index / kChunkSize][index % kChunkSize];
  if (e->gen != gen) {
    return -1;  // this incarnation already fired or was cancelled
  }
  switch (e->state.load(std::memory_order_relaxed)) {
    case EntryState::kArmed:
      sh.wheel.Remove(&e->node);
      FreeLocked(sh, e);
      ++sh.cancels;
      return 0;
    case EntryState::kFiring:
      // The sweep claimed it first: the fire owns the callback context and
      // will run; all we can suppress is a periodic re-arm. A periodic signal
      // timer's id is still live and its fire owns no caller memory, so that
      // cancel succeeds; a callback's -1 tells its caller the fire is in flight.
      e->state.store(EntryState::kFiringCancelled, std::memory_order_relaxed);
      if (e->kind == FireKind::kCallback || e->period_ns == 0) {
        return -1;
      }
      ++sh.cancels;
      return 0;
    default:
      return -1;  // already cancelled mid-fire
  }
}

int64_t timer_set_process_interval(int64_t period_ns, int sig) {
  WheelState& st = Wheel();
  // Cancel, arm and store under one lock: two callers that both armed would
  // overwrite one id, and that timer could never be cancelled.
  SpinLockGuard guard(st.interval_lock);
  int64_t previous = st.process_interval_ns;
  timer_cancel(st.process_interval_timer);
  st.process_interval_ns = period_ns;
  st.process_interval_timer =
      period_ns > 0 ? ArmEntry(period_ns, period_ns, FireKind::kSignalProcess,
                               sig > 0 ? sig : SIG_ALRM, 0, nullptr, nullptr, 0)
                    : kInvalidTimerId;
  return previous;
}

timer_id_t timer_arm_callback(int64_t delay_ns, void (*fn)(void*, uint64_t),
                              void* cookie, uint64_t arg) {
  if (delay_ns < 0 || fn == nullptr) {
    return kInvalidTimerId;
  }
  return ArmEntry(delay_ns, 0, FireKind::kCallback, 0, 0, fn, cookie, arg);
}

timer_id_t timer_arm_callback_periodic(int64_t first_delay_ns,
                                       int64_t period_ns,
                                       void (*fn)(void*, uint64_t),
                                       void* cookie, uint64_t arg) {
  if (first_delay_ns < 0 || period_ns <= 0 || fn == nullptr) {
    return kInvalidTimerId;
  }
  return ArmEntry(first_delay_ns, period_ns, FireKind::kCallback, 0, 0, fn,
                  cookie, arg);
}

void thread_sleep_ns(int64_t ns) {
  if (ns <= 0) {
    thread_yield();
    return;
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  Sleep sleep;
  ArmEntry(ns, 0, FireKind::kCallback, 0, 0, &SleepFire, &sleep, 0);
  sleep.lock.Lock();
  if (sleep.fired) {
    sleep.lock.Unlock();
    return;
  }
  sleep.sleeper = self;
  sched::Block(&sleep.lock);  // the thread blocks; its LWP runs other threads
}

uint64_t timer_fire_count() {
  return Wheel().fires.load(std::memory_order_relaxed);
}

TimerEngineStats timer_engine_stats() {
  TimerEngineStats s = {};
  WheelState& st = Wheel();
  s.fires = st.fires.load(std::memory_order_relaxed);
  s.shards = kShards;
  for (TimerShard& sh : st.shards) {
    SpinLockGuard guard(sh.lock);
    s.live += sh.wheel.size();
    s.pool_free += sh.pool_free;
    s.pool_allocated += sh.pool_alloc;
    s.arms += sh.arms;
    s.cancels += sh.cancels;
    s.reaps += sh.reaps;
    s.cascades += sh.wheel.cascades();
  }
  return s;
}

}  // namespace sunmt
