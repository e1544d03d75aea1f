// The timer engine: per-LWP-sharded hierarchical timing wheels (wheel.h) with
// pooled entries and lock-free lazy cancellation.
//
// Engine shape:
//
//   * Arm is O(1) and touches only per-shard state: the calling kernel thread
//     (i.e. LWP — shards are keyed by the same round-robin token as the stats
//     shards) takes its shard's spinlock once, pops a pooled entry, buckets it
//     in the shard's wheel, and publishes the Armed tag. No malloc, and a
//     futex kick only when the new deadline beats the service loop's
//     published sweep horizon (Runtime::WakeServiceBy).
//   * Cancel is lock-free: decode the id, CAS the entry's tag word from
//     Armed to Tombstone. The wheel is never touched — the tombstone is
//     reaped when its slot turns over (or by a wholesale sweep once enough
//     accumulate), so the dominant rearm-before-fire churn of deadline-heavy
//     servers never takes any wheel lock twice. The generation stamp packed
//     into the same tag word makes the CAS immune to entry reuse (ABA).
//   * The runtime's service loop sweeps each shard (SweepTimerWheel, a no-op
//     until the first arm): advance the wheel, splice the due
//     batch, claim each entry Armed->Firing (a batch claim BEFORE any
//     callback runs, so a cancel racing the fire fails — the timed-wait ack
//     protocol in timed_wait.h depends on that), then fire outside all
//     locks. A claimed fire always runs even if a cancel lands mid-flight
//     (the -1 return told the caller the fire owns the context); the
//     mid-flight cancel only suppresses a periodic re-arm.
//
// Tag word protocol (one atomic uint64 per entry):
//
//     tag = (generation << 3) | state
//     Free ->(arm, shard lock held)-> Armed
//     Armed ->(cancel CAS, lock-free)-> Tombstone        cancel returns 0
//     Armed ->(sweep claim)-> Firing
//     Firing ->(cancel CAS)-> FiringCancelled            cancel returns -1
//                                   (0 for a periodic signal timer)
//     Firing ->(sweep, periodic)-> Armed (same generation: the id stays valid)
//     Firing/FiringCancelled/Tombstone ->(reap)-> Free with generation+1
//
// timer ids pack (generation << 24) | (pool index << 4) | shard, so cancel
// finds the entry without any map and validates the incarnation in the same
// CAS that transitions it.

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

// ---- Entry & tag word --------------------------------------------------------

constexpr uint64_t kStFree = 0;
constexpr uint64_t kStArmed = 1;
constexpr uint64_t kStFiring = 2;
constexpr uint64_t kStTombstone = 3;
constexpr uint64_t kStFiringCancelled = 4;
constexpr uint64_t kStateMask = 7;
constexpr int kGenShift = 3;

struct TimerEntry {
  WheelNode node;  // must stay first: the sweep casts WheelNode* back
  // (generation << kGenShift) | state; generation starts at 1 so no packed id
  // ever equals kInvalidTimerId.
  std::atomic<uint64_t> tag{(1ull << kGenShift) | kStFree};
  uint32_t index = 0;                // pool index within the owning shard
  TimerEntry* free_next = nullptr;   // shard free list / local reap batches
  int64_t deadline_ns = 0;
  std::atomic<int64_t> period_ns{0};  // 0 = one-shot (atomic: engine vs cancel)
  std::atomic<FireKind> kind{FireKind::kCallback};  // atomic: arm vs cancel
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
constexpr uint32_t kReapThreshold = 1024;  // tombstones that trigger a sweep

// id layout: (generation << 24) | (index << 4) | shard.
constexpr int kIdShardBits = 4;
constexpr int kIdIndexBits = 20;
constexpr uint64_t kIdShardMask = (1ull << kIdShardBits) - 1;
constexpr uint64_t kIdIndexMask = (1ull << kIdIndexBits) - 1;
constexpr int kIdGenShift = kIdShardBits + kIdIndexBits;
static_assert(kChunkSize * kMaxChunks == (1u << kIdIndexBits),
              "pool capacity must match the id's index field");
static_assert(kShards <= (1 << kIdShardBits), "shard field too small");

struct alignas(64) TimerShard {
  SpinLock lock;
  TimingWheel wheel;
  TimerEntry* free_list = nullptr;
  uint32_t chunk_count = 0;
  uint32_t carved = 0;  // next never-used pool index
  std::atomic<TimerEntry*> chunks[kMaxChunks];  // acquire-loaded by cancel
  std::atomic<uint32_t> tombstones{0};
  std::atomic<uint64_t> arms{0};
  std::atomic<uint64_t> cancels{0};
  std::atomic<uint64_t> reaps{0};
  std::atomic<uint64_t> sweeps{0};
  std::atomic<uint64_t> pool_free{0};
  std::atomic<uint64_t> pool_alloc{0};

  TimerShard() {
    for (auto& c : chunks) {
      c.store(nullptr, std::memory_order_relaxed);
    }
  }
};

struct WheelState {
  TimerShard shards[kShards];
  std::atomic<uint64_t> fires{0};
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

// fork1() child repair: any engine structure may have been copied
// mid-mutation; rebuild everything in place (parent entries and pool chunks
// leak in the child — the safe direction). The child's rebuilt runtime starts
// a service loop that sweeps the fresh wheel.
void TimerForkChildRepair() { new (&Wheel()) WheelState(); }

void FireEntry(TimerEntry* entry) {
  // Delays here race timer delivery against concurrent waker/cancel paths —
  // the timeout-vs-wake window of the timed sync waits.
  inject::Perturb(inject::kTimerCallback);
  Wheel().fires.fetch_add(1, std::memory_order_relaxed);
  switch (entry->kind.load(std::memory_order_relaxed)) {
    case FireKind::kSignalThread:
      if (thread_kill(entry->target, entry->sig) != 0) {
        entry->period_ns.store(0, std::memory_order_relaxed);  // target gone
      }
      break;
    case FireKind::kSignalProcess:
      signal_raise_process(entry->sig);
      break;
    case FireKind::kCallback:
      entry->callback(entry->cookie, entry->callback_arg);
      break;
  }
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
    e->free_next = nullptr;
    sh.pool_free.fetch_sub(1, std::memory_order_relaxed);
    return e;
  }
  if (sh.carved >= kChunkSize * sh.chunk_count) {
    if (sh.chunk_count == kMaxChunks) {
      return nullptr;
    }
    auto* chunk = new TimerEntry[kChunkSize];
    uint32_t ci = sh.chunk_count;
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].index = ci * kChunkSize + i;
    }
    // Release-publish: cancel reads the chunk directory without the lock.
    sh.chunks[ci].store(chunk, std::memory_order_release);
    sh.chunk_count = ci + 1;
  }
  TimerEntry* chunk =
      sh.chunks[sh.carved / kChunkSize].load(std::memory_order_relaxed);
  TimerEntry* e = &chunk[sh.carved % kChunkSize];
  ++sh.carved;
  sh.pool_alloc.fetch_add(1, std::memory_order_relaxed);
  return e;
}

// Sweeps one shard: advance its wheel, claim the due batch, fire outside the
// lock, then re-bucket periodics and recycle everything else in one relock.
// Returns the shard's next event tick (kNoEvent when empty).
uint64_t ProcessShard(TimerShard& sh, uint64_t now_tick) {
  auto is_tombstone = [](WheelNode* node) {
    return (EntryFromNode(node)->tag.load(std::memory_order_acquire) &
            kStateMask) == kStTombstone;
  };

  WheelNode due;
  WheelListInit(&due);
  sh.lock.Lock();
  // Delays here hold the shard mid-sweep: the window where arms pile into a
  // slot being turned over and cancels race the claim CAS below.
  inject::Perturb(inject::kTimerWheel);
  if (sh.tombstones.load(std::memory_order_relaxed) >= kReapThreshold) {
    // Enough lazily cancelled entries piled up ahead of their slots: sweep
    // them wholesale instead of letting them pin pool entries for the
    // remainder of their (possibly long) original deadlines.
    sh.wheel.RemoveIf(is_tombstone, &due);
    sh.sweeps.fetch_add(1, std::memory_order_relaxed);
  }
  sh.wheel.Advance(now_tick, &due, is_tombstone);
  sh.lock.Unlock();

  // Claim pass — BEFORE any callback runs. From the moment an entry leaves
  // the wheel a cancel must fail (return -1), because the timed-wait ack
  // protocol keys off that: a failed cancel sends the waiter into
  // TimedWait::AwaitFire to spin for the fire's timeout_fire_seq ack.
  TimerEntry* reap_head = nullptr;
  uint32_t reaped = 0;
  uint32_t reaped_tombstones = 0;
  WheelNode fire_list;
  WheelListInit(&fire_list);
  while (!WheelListEmpty(&due)) {
    WheelNode* node = due.next;
    WheelListRemove(node);
    TimerEntry* e = EntryFromNode(node);
    uint64_t tag = e->tag.load(std::memory_order_acquire);
    uint64_t gen = tag >> kGenShift;
    if (tag != ((gen << kGenShift) | kStArmed) ||
        !e->tag.compare_exchange_strong(
            tag, (gen << kGenShift) | kStFiring, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      // A cancel won: the entry is a tombstone — retire this incarnation.
      e->tag.store(((gen + 1) << kGenShift) | kStFree,
                   std::memory_order_release);
      e->free_next = reap_head;
      reap_head = e;
      ++reaped;
      ++reaped_tombstones;
      continue;
    }
    WheelListPushBack(&fire_list, node);
  }

  // Fire pass — outside every lock; delivery takes package locks of its own.
  // A cancel landing now flips Firing->FiringCancelled and returns -1; a
  // claimed wake/callback fire still runs (the timed-wait ack protocol: the
  // cancelling waiter is already spinning in TimedWait::AwaitFire for the
  // fire's timeout_fire_seq bump, and the fire owns the callback context).
  // Signal fires carry no ack and ARE suppressed on a mid-flight cancel: the
  // claim-to-fire window can stretch across a descheduled sweep, and a
  // disarmed interval timer's signal landing after the caller restored
  // SIG_DEFAULT would terminate the process.
  WheelNode rearm_list;
  WheelListInit(&rearm_list);
  while (!WheelListEmpty(&fire_list)) {
    WheelNode* node = fire_list.next;
    WheelListRemove(node);
    TimerEntry* e = EntryFromNode(node);
    bool cancelled_in_flight =
        (e->tag.load(std::memory_order_acquire) & kStateMask) ==
        kStFiringCancelled;
    bool signal_fire =
        e->kind.load(std::memory_order_relaxed) != FireKind::kCallback;
    if (!(cancelled_in_flight && signal_fire)) {
      FireEntry(e);
    }
    uint64_t gen = e->tag.load(std::memory_order_relaxed) >> kGenShift;
    int64_t period = e->period_ns.load(std::memory_order_relaxed);
    uint64_t firing = (gen << kGenShift) | kStFiring;
    if (period > 0 &&
        e->tag.compare_exchange_strong(
            firing, (gen << kGenShift) | kStArmed, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      // Periodic and not cancelled mid-fire: same generation, so the caller's
      // id stays valid across re-arms.
      e->deadline_ns += period;
      e->node.expiry_tick = TickForDeadline(e->deadline_ns);
      WheelListPushBack(&rearm_list, node);
    } else {
      // One-shot done, or a mid-fire cancel suppressed the re-arm.
      e->tag.store(((gen + 1) << kGenShift) | kStFree,
                   std::memory_order_release);
      e->free_next = reap_head;
      reap_head = e;
      ++reaped;
    }
  }

  sh.lock.Lock();
  while (!WheelListEmpty(&rearm_list)) {
    WheelNode* node = rearm_list.next;
    WheelListRemove(node);
    sh.wheel.Insert(node);
  }
  while (reap_head != nullptr) {
    TimerEntry* e = reap_head;
    reap_head = e->free_next;
    e->free_next = sh.free_list;
    sh.free_list = e;
  }
  uint64_t next_tick = sh.wheel.NextEventTick();
  sh.lock.Unlock();
  if (reaped > 0) {
    sh.pool_free.fetch_add(reaped, std::memory_order_relaxed);
    sh.reaps.fetch_add(reaped, std::memory_order_relaxed);
  }
  if (reaped_tombstones > 0) {
    sh.tombstones.fetch_sub(reaped_tombstones, std::memory_order_relaxed);
  }
  return next_tick;
}

// Set by the first arm. Until then the service loop's sweeps find nothing to
// do and build no wheel.
std::atomic<bool> g_armed{false};

void EnsureArmed() {
  if (!g_armed.load(std::memory_order_acquire) &&
      !g_armed.exchange(true, std::memory_order_acq_rel)) {
    Runtime::RegisterForkChildHandler(&TimerForkChildRepair);
  }
}

timer_id_t ArmEntry(int64_t delay_ns, int64_t period_ns, FireKind kind, int sig,
                    thread_id_t target, void (*fn)(void*, uint64_t),
                    void* cookie, uint64_t arg) {
  EnsureArmed();
  Runtime::Get();  // its service loop sweeps the wheel
  WheelState& st = Wheel();
  int64_t deadline = MonotonicNowNs() + delay_ns;
  int home = static_cast<int>(stats_internal::ShardToken() % kShards);
  timer_id_t id = kInvalidTimerId;
  // Probe past a full shard instead of failing: no timed-wait caller checks
  // for kInvalidTimerId (an arm that "fails" would strand its waiter spinning
  // for a fire that never comes), so arming is infallible up to the absurd
  // 8M-live-timer design capacity.
  for (int probe = 0; probe < kShards; ++probe) {
    int shard_idx = (home + probe) % kShards;
    TimerShard& sh = st.shards[shard_idx];
    sh.lock.Lock();
    TimerEntry* e = PopFreeLocked(sh);
    if (e == nullptr) {
      sh.lock.Unlock();
      continue;
    }
    uint64_t gen = e->tag.load(std::memory_order_relaxed) >> kGenShift;
    e->deadline_ns = deadline;
    e->period_ns.store(period_ns, std::memory_order_relaxed);
    e->kind.store(kind, std::memory_order_relaxed);
    e->sig = sig;
    e->target = target;
    e->callback = fn;
    e->cookie = cookie;
    e->callback_arg = arg;
    e->node.expiry_tick = TickForDeadline(deadline);
    sh.wheel.Insert(&e->node);
    e->tag.store((gen << kGenShift) | kStArmed, std::memory_order_release);
    sh.arms.fetch_add(1, std::memory_order_relaxed);
    sh.lock.Unlock();
    id = MakeId(gen, e->index, shard_idx);
    break;
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
  WheelState& st = Wheel();
  uint64_t shard_idx = id & kIdShardMask;
  uint32_t index = static_cast<uint32_t>((id >> kIdShardBits) & kIdIndexMask);
  uint64_t gen = id >> kIdGenShift;
  if (gen == 0 || shard_idx >= static_cast<uint64_t>(kShards)) {
    return -1;
  }
  TimerShard& sh = st.shards[shard_idx];
  TimerEntry* chunk =
      sh.chunks[index / kChunkSize].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    return -1;
  }
  TimerEntry* e = &chunk[index % kChunkSize];
  // Stretches the cancel-vs-claim race: the sweep may be splicing this very
  // entry's slot right now.
  inject::Perturb(inject::kTimerWheel);
  uint64_t tag = e->tag.load(std::memory_order_acquire);
  for (;;) {
    if ((tag >> kGenShift) != gen) {
      return -1;  // this incarnation already fired and was recycled
    }
    uint64_t state = tag & kStateMask;
    if (state == kStArmed) {
      // Lazy cancellation: tombstone in place, never touch the wheel. The
      // slot turnover (or a threshold sweep) recycles the entry.
      if (e->tag.compare_exchange_weak(
              tag, (gen << kGenShift) | kStTombstone,
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        sh.cancels.fetch_add(1, std::memory_order_relaxed);
        uint32_t t = sh.tombstones.fetch_add(1, std::memory_order_relaxed) + 1;
        if (t % kReapThreshold == 0) {
          // Batch boundary: worth a wholesale sweep, unless one is due anyway.
          Runtime::WakeServiceBy(MonotonicNowNs());
        }
        return 0;
      }
    } else if (state == kStFiring) {
      // The sweep claimed it first: the fire owns the callback context and
      // will run; all we can suppress is a periodic re-arm. A periodic signal
      // timer's id is still live and its fire owns no caller memory, so that
      // cancel succeeds; a callback's -1 tells its caller the fire is in flight.
      // Read before the CAS, whose success proves they are this incarnation's:
      // once the entry is recycled, another arm may rewrite them.
      bool periodic_signal =
          e->kind.load(std::memory_order_relaxed) != FireKind::kCallback &&
          e->period_ns.load(std::memory_order_relaxed) > 0;
      if (e->tag.compare_exchange_weak(
              tag, (gen << kGenShift) | kStFiringCancelled,
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        if (!periodic_signal) {
          return -1;
        }
        sh.cancels.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
    } else {
      return -1;  // free, already tombstoned, or already cancelled mid-fire
    }
  }
}

int64_t timer_set_process_interval(int64_t period_ns, int sig) {
  WheelState& st = Wheel();
  int64_t previous;
  timer_id_t old_id;
  {
    SpinLockGuard guard(st.interval_lock);
    previous = st.process_interval_ns;
    old_id = st.process_interval_timer;
    st.process_interval_ns = period_ns;
    st.process_interval_timer = kInvalidTimerId;
  }
  if (old_id != kInvalidTimerId) {
    timer_cancel(old_id);
  }
  if (period_ns > 0) {
    timer_id_t id =
        ArmEntry(period_ns, period_ns, FireKind::kSignalProcess,
                 sig > 0 ? sig : SIG_ALRM, 0, nullptr, nullptr, 0);
    SpinLockGuard guard(st.interval_lock);
    st.process_interval_timer = id;
  }
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
    s.tombstones += sh.tombstones.load(std::memory_order_relaxed);
    s.pool_free += sh.pool_free.load(std::memory_order_relaxed);
    s.pool_allocated += sh.pool_alloc.load(std::memory_order_relaxed);
    s.arms += sh.arms.load(std::memory_order_relaxed);
    s.cancels += sh.cancels.load(std::memory_order_relaxed);
    s.reaps += sh.reaps.load(std::memory_order_relaxed);
    s.sweeps += sh.sweeps.load(std::memory_order_relaxed);
    SpinLockGuard guard(sh.lock);
    s.live += sh.wheel.size();
    s.cascades += sh.wheel.cascades();
  }
  return s;
}

}  // namespace sunmt
