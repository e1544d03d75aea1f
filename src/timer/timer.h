// Timers.
//
// The paper: "There is only one real-time interval timer per process, so it
// delivers one signal to an address space when it reaches the specified time
// interval. Library routines may implement multiple per-thread timers using the
// per-address space timer when that functionality is required."
//
// This module is those library routines: one timer engine (the per-process
// timer stand-in) multiplexes any number of per-thread timers. The engine has
// no thread of its own: the runtime's service loop (src/core/runtime.cc), the
// process's one service thread, sweeps its wheel. Timers deliver simulated
// signals through src/signal — a directed signal to the owning thread
// (trap-like, per thread_kill semantics) — or run a callback on the service
// thread: thread_sleep_ns() and the timed sync waits (sema_p_timed,
// cv_timedwait in src/sync, one layer up) wake their blocked thread that way.
//
// thread_sleep_ns() is the piece io_sleep_ns() cannot give you: it blocks the
// *thread* only. The LWP is released to run other threads, so a thousand
// sleeping threads cost no kernel resources — unbound-thread economics applied
// to time.

#ifndef SUNMT_SRC_TIMER_TIMER_H_
#define SUNMT_SRC_TIMER_TIMER_H_

#include <cstdint>

#include "src/core/thread.h"

namespace sunmt {

using timer_id_t = uint64_t;
inline constexpr timer_id_t kInvalidTimerId = 0;

// Arms a timer that delivers `sig` to thread `target` (0 = the calling thread)
// after `first_delay_ns`, then every `period_ns` if period_ns > 0. Returns the
// timer id, or kInvalidTimerId on bad arguments. A periodic timer whose target
// thread has exited cancels itself.
timer_id_t timer_arm(int64_t first_delay_ns, int64_t period_ns, int sig,
                     thread_id_t target);

// Cancels a timer. Returns 0, or -1 if the id is unknown (already fired
// one-shot timers count as unknown) or names a callback timer whose fire is
// in flight. A periodic signal timer cancelled while its fire is in flight
// returns 0: its id is live and the cancel stops every re-arm (the signal in
// flight may still land).
int timer_cancel(timer_id_t id);

// Arms a one-shot timer running fn(cookie, arg) on the service thread after
// `delay_ns`. The callback must be short and non-blocking (it delays every
// other timer, the LWP clock and the SIGWAITING watchdog); package wake-ups
// are fine, package waits are not.
timer_id_t timer_arm_callback(int64_t delay_ns, void (*fn)(void* cookie, uint64_t arg),
                              void* cookie, uint64_t arg);

// Like timer_arm_callback but re-fires every `period_ns` after the first
// expiry until cancelled. Cancelling from inside the callback is allowed and
// is the idiomatic self-disarm: the cancel returns -1 (the fire is in
// flight) and suppresses every subsequent re-arm.
timer_id_t timer_arm_callback_periodic(int64_t first_delay_ns, int64_t period_ns,
                                       void (*fn)(void* cookie, uint64_t arg),
                                       void* cookie, uint64_t arg);

// The per-process real-time interval timer: every `period_ns` one `sig`
// (default SIG_ALRM) is raised as a process-directed interrupt — one unmasked
// thread receives it. period_ns == 0 disarms. Returns the previous period.
int64_t timer_set_process_interval(int64_t period_ns, int sig);

// Blocks the calling thread (not its LWP) for at least `ns`: it parks on a
// one-entry wait of its own that a timer callback wakes.
void thread_sleep_ns(int64_t ns);
inline void thread_sleep_ms(int64_t ms) { thread_sleep_ns(ms * 1000 * 1000); }

// Total timer expirations delivered so far (tests/observability).
uint64_t timer_fire_count();

// Engine introspection snapshot — the TIMER line in FormatProcessState() and
// the hooks the wheel tests assert reuse/reap behavior through. Counters are
// cumulative since process start (reset in a fork1() child along with the
// engine itself).
struct TimerEngineStats {
  int shards;                // wheel shard count
  uint64_t live;             // armed timers resident in the wheels
  uint64_t tombstones;       // always 0: a cancel unlinks its entry at once
  uint64_t pool_free;        // pooled entries on shard free lists
  uint64_t pool_allocated;   // entries ever carved from shard chunks
  uint64_t arms;             // successful arm operations
  uint64_t cancels;          // cancels that returned 0
  uint64_t fires;            // expirations delivered (== timer_fire_count())
  uint64_t reaps;            // entries recycled onto free lists
  uint64_t cascades;         // wheel slot cascades
};
TimerEngineStats timer_engine_stats();

// Package-internal: the runtime service loop's wheel duty. Fires every timer
// due at `now_ns` and returns the wheel's next event time: INT64_MAX when it
// is empty, or when no timer was ever armed (then it builds no wheel).
int64_t SweepTimerWheel(int64_t now_ns);

// Package-internal: fork1() child repair (Runtime::ResetAfterFork). Rebuilds
// the wheel empty if a timer was ever armed.
void TimerResetAfterFork();

}  // namespace sunmt

#endif  // SUNMT_SRC_TIMER_TIMER_H_
