// Introspection — the /proc extension analogue.
//
// The paper extends /proc so a debugger can see the process's LWPs and, with the
// threads library's cooperation, its user-level threads ("debugger control of
// library threads is accomplished by cooperation between the debugger and the
// threads library"). This module is that cooperation: a programmatic snapshot of
// every thread and LWP plus a ps(1)-style textual dump.

#ifndef SUNMT_SRC_INTROSPECT_INTROSPECT_H_
#define SUNMT_SRC_INTROSPECT_INTROSPECT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sunmt {

struct ThreadSnapshot {
  uint64_t id;
  char name[32];      // thread_setname label ("" if unnamed)
  const char* state;  // "RUNNABLE", "RUNNING", ...
  int priority;
  bool bound;
  bool waitable;
  bool stop_requested;
  // Carrying/bound LWP, -1 if none: the LWP whose ON-PROC slot names this
  // thread (src/lwp/onproc.h), so a blocked or runnable unbound thread, or
  // one on an LWP that got no slot, reports -1.
  int lwp_id;
  uint64_t pending_signals;
  uint64_t sigmask;
  uint64_t yields;    // voluntary thread_yield calls by this thread
  uint64_t preempts;  // timeslice preemptions suffered by this thread
};

struct LwpSnapshot {
  int id;
  bool pool;             // serves unbound threads (vs bound/adopted)
  bool in_kernel_wait;
  bool indefinite_wait;
  bool poll_owner;       // holds the blocking netpoll (Runtime::EnterIdle)
  uint64_t running_thread;  // from its ON-PROC slot: 0 if idle or no slot
  int64_t user_ns;
  int64_t system_wait_ns;
  uint64_t kernel_calls;
};

struct SchedStatsSnapshot {
  uint64_t dispatches;
  uint64_t yields;
  uint64_t preemptions;
  uint64_t blocks;
  uint64_t wakes;
  uint64_t threads_created;
  uint64_t threads_exited;
  uint64_t adoptions;
  uint64_t sigwaiting_events;
  // Sharded-scheduler counters (see ShardedRunQueue / Runtime::NotifyWork).
  uint64_t steals;             // successful steal operations
  uint64_t stolen_threads;     // threads migrated by steals
  uint64_t box_wakes;          // wake-affinity next-box placements
  uint64_t overflow_enqueues;  // enqueues routed to the shared overflow queue
  uint64_t notify_wakes;       // NotifyWork unparked an idle LWP
  uint64_t notify_throttled;   // NotifyWork suppressed by the wake-pending flag
};

// Per-shard run-queue depth (queue + next box) plus attached-LWP count; one
// entry per shard in [0, shard_limit). Empty if the runtime never started.
struct ShardSnapshot {
  int shard;
  size_t depth;
  int live_lwps;
};
void SnapshotShards(std::vector<ShardSnapshot>* out);

// Snapshots of all live threads / LWPs. Best-effort consistent (taken under the
// package's registry locks; states may move immediately after).
void SnapshotThreads(std::vector<ThreadSnapshot>* out);
void SnapshotLwps(std::vector<LwpSnapshot>* out);
SchedStatsSnapshot SnapshotSchedStats();

// Renders the whole process state as a /proc-style table.
std::string FormatProcessState();

// Convenience: FormatProcessState() to a stream.
void DumpProcessState(FILE* stream);

}  // namespace sunmt

#endif  // SUNMT_SRC_INTROSPECT_INTROSPECT_H_
