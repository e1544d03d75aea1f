#include "src/introspect/introspect.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <utility>

#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/tcb.h"
#include "src/debug/lockdep.h"
#include "src/inject/inject.h"
#include "src/lwp/lwp.h"
#include "src/lwp/onproc.h"
#include "src/net/backend.h"
#include "src/timer/timer.h"
#include "src/util/object_cache.h"

namespace sunmt {
namespace {

const char* StateName(ThreadState state) {
  switch (state) {
    case ThreadState::kEmbryo:
      return "EMBRYO";
    case ThreadState::kRunnable:
      return "RUNNABLE";
    case ThreadState::kRunning:
      return "RUNNING";
    case ThreadState::kBlocked:
      return "BLOCKED";
    case ThreadState::kStopped:
      return "STOPPED";
    case ThreadState::kZombie:
      return "ZOMBIE";
    case ThreadState::kDead:
      return "DEAD";
  }
  return "?";
}

struct LwpCollect {
  std::vector<LwpSnapshot>* out;
  const Lwp* poll_owner;
};

void CollectLwp(Lwp* lwp, void* cookie) {
  auto* collect = static_cast<LwpCollect*>(cookie);
  LwpSnapshot snap;
  snap.id = lwp->id();
  snap.pool = lwp->pool != nullptr;
  snap.in_kernel_wait = lwp->InKernelWait();
  snap.indefinite_wait = lwp->InIndefiniteWait();
  snap.poll_owner = lwp == collect->poll_owner;
  snap.running_thread = onproc::Running(lwp->onproc_slot());
  LwpUsage usage = lwp->Usage();
  snap.user_ns = usage.user_ns;
  snap.system_wait_ns = usage.system_wait_ns;
  snap.kernel_calls = usage.kernel_calls;
  collect->out->push_back(snap);
}

}  // namespace

void SnapshotThreads(std::vector<ThreadSnapshot>* out) {
  out->clear();
  if (!Runtime::IsInitialized()) {
    return;
  }
  // (running thread id, LWP id) per LWP from the ON-PROC slots, by thread id.
  using Carried = std::vector<std::pair<uint64_t, int>>;
  Carried carried;
  LwpRegistry::ForEach(
      [](Lwp* lwp, void* v) {
        static_cast<Carried*>(v)->emplace_back(onproc::Running(lwp->onproc_slot()),
                                               lwp->id());
      },
      &carried);
  std::sort(carried.begin(), carried.end());
  Runtime::Get().ForEachThread([out, &carried](Tcb* t) {
    ThreadSnapshot snap;
    snap.id = t->id;
    {
      SpinLockGuard guard(t->state_lock);
      snprintf(snap.name, sizeof(snap.name), "%s", t->name);
    }
    // The LWP whose slot names the thread, or its bound LWP: a registered
    // bound thread has not exited, so that LWP has not retired.
    auto it = std::lower_bound(carried.begin(), carried.end(),
                               std::make_pair(snap.id, 0));  // LWP ids are > 0
    snap.lwp_id = t->IsBound() ? t->bound_lwp->id()
                  : it != carried.end() && it->first == snap.id ? it->second
                                                                : -1;
    snap.state = StateName(t->state.load(std::memory_order_acquire));
    snap.priority = t->priority.load(std::memory_order_relaxed);
    snap.bound = t->IsBound();
    snap.waitable = t->waitable;
    snap.stop_requested = t->stop_requested.load(std::memory_order_relaxed);
    snap.pending_signals = t->pending_signals.load(std::memory_order_relaxed);
    snap.sigmask = t->sigmask.load(std::memory_order_relaxed);
    snap.yields = t->yield_count.load(std::memory_order_relaxed);
    snap.preempts = t->preempt_count.load(std::memory_order_relaxed);
    out->push_back(snap);
  });
}

void SnapshotLwps(std::vector<LwpSnapshot>* out) {
  out->clear();
  LwpCollect collect{
      out, Runtime::IsInitialized() ? Runtime::Get().poll_owner() : nullptr};
  LwpRegistry::ForEach(&CollectLwp, &collect);
}

SchedStatsSnapshot SnapshotSchedStats() {
  SchedStats& stats = GlobalSchedStats();
  SchedStatsSnapshot snap;
  snap.dispatches = stats.dispatches.Load();
  snap.yields = stats.yields.Load();
  snap.preemptions = stats.preemptions.Load();
  snap.blocks = stats.blocks.Load();
  snap.wakes = stats.wakes.Load();
  snap.threads_created = stats.threads_created.Load();
  snap.threads_exited = stats.threads_exited.Load();
  snap.adoptions = stats.adoptions.Load();
  snap.sigwaiting_events =
      Runtime::IsInitialized() ? Runtime::Get().sigwaiting_count() : 0;
  snap.notify_wakes = stats.notify_wakes.Load();
  snap.notify_throttled = stats.notify_throttled.Load();
  if (Runtime::IsInitialized()) {
    ShardedRunQueue& queues = Runtime::Get().queues();
    snap.steals = queues.Steals();
    snap.stolen_threads = queues.StolenThreads();
    snap.box_wakes = queues.BoxWakes();
    snap.overflow_enqueues = queues.OverflowEnqueues();
  } else {
    snap.steals = 0;
    snap.stolen_threads = 0;
    snap.box_wakes = 0;
    snap.overflow_enqueues = 0;
  }
  return snap;
}

void SnapshotShards(std::vector<ShardSnapshot>* out) {
  out->clear();
  if (!Runtime::IsInitialized()) {
    return;
  }
  ShardedRunQueue& queues = Runtime::Get().queues();
  int limit = queues.shard_limit();
  for (int s = 0; s < limit; ++s) {
    out->push_back(
        ShardSnapshot{s, queues.ShardDepth(s), queues.LiveLwps(s)});
  }
}

std::string FormatProcessState() {
  std::vector<ThreadSnapshot> threads;
  std::vector<LwpSnapshot> lwps;
  SnapshotThreads(&threads);
  SnapshotLwps(&lwps);

  std::string out;
  char line[160];
  snprintf(line, sizeof(line), "THREADS (%zu)\n", threads.size());
  out += line;
  out += "  TID      NAME             STATE     PRI  BOUND  WAIT  LWP  YIELDS   PREEMPTS PENDING\n";
  for (const ThreadSnapshot& t : threads) {
    snprintf(line, sizeof(line),
             "  %-8" PRIu64 " %-16s %-9s %-4d %-6s %-5s %-4d %-8" PRIu64
             " %-8" PRIu64 " 0x%" PRIx64 "\n",
             t.id, t.name[0] != '\0' ? t.name : "-", t.state, t.priority,
             t.bound ? "yes" : "no", t.waitable ? "yes" : "no", t.lwp_id,
             t.yields, t.preempts, t.pending_signals);
    out += line;
  }
  snprintf(line, sizeof(line), "LWPS (%zu)\n", lwps.size());
  out += line;
  out += "  LWP  POOL  KWAIT  INDEF  TID      USER_MS  KCALLS\n";
  for (const LwpSnapshot& l : lwps) {
    snprintf(line, sizeof(line),
             "  %-4d %-5s %-6s %-6s %-8" PRIu64 " %-8.1f %" PRIu64 "\n", l.id,
             l.pool ? "yes" : "no", l.in_kernel_wait ? "yes" : "no",
             l.indefinite_wait ? "yes" : "no", l.running_thread,
             static_cast<double>(l.user_ns) / 1e6, l.kernel_calls);
    out += line;
  }
  SchedStatsSnapshot stats = SnapshotSchedStats();
  snprintf(line, sizeof(line),
           "SCHED dispatches=%" PRIu64 " yields=%" PRIu64 " preempt=%" PRIu64
           " blocks=%" PRIu64 " wakes=%" PRIu64 "\n",
           stats.dispatches, stats.yields, stats.preemptions, stats.blocks, stats.wakes);
  out += line;
  snprintf(line, sizeof(line),
           "      created=%" PRIu64 " exited=%" PRIu64 " adoptions=%" PRIu64
           " sigwaiting=%" PRIu64 "\n",
           stats.threads_created, stats.threads_exited, stats.adoptions,
           stats.sigwaiting_events);
  out += line;
  snprintf(line, sizeof(line),
           "RUNQ  steals=%" PRIu64 " stolen=%" PRIu64 " box_wakes=%" PRIu64
           " overflow=%" PRIu64 " notify_wakes=%" PRIu64
           " notify_throttled=%" PRIu64 "\n",
           stats.steals, stats.stolen_threads, stats.box_wakes,
           stats.overflow_enqueues, stats.notify_wakes, stats.notify_throttled);
  out += line;
  std::vector<ShardSnapshot> shards;
  SnapshotShards(&shards);
  if (!shards.empty()) {
    size_t overflow_depth =
        Runtime::IsInitialized() ? Runtime::Get().queues().OverflowDepth() : 0;
    out += "      shard depth (depth/lwps):";
    for (const ShardSnapshot& s : shards) {
      snprintf(line, sizeof(line), " %d:%zu/%d", s.shard, s.depth, s.live_lwps);
      out += line;
    }
    snprintf(line, sizeof(line), " overflow:%zu\n", overflow_depth);
    out += line;
  }
  // One header plus one line per registered magazine cache (stack, HTTP conn
  // args, cxx closures, ...). fallback_allocs is the process-wide count of
  // hot-path misses that hit a real allocator — the number the zero-alloc
  // steady-state tests pin at zero.
  ObjectCacheStats caches[16];
  size_t cache_count =
      ObjectCacheSnapshotAll(caches, sizeof(caches) / sizeof(caches[0]));
  snprintf(line, sizeof(line), "OBJCACHE caches=%zu fallback_allocs=%" PRIu64 "\n",
           cache_count, ObjectCacheFallbackAllocs());
  out += line;
  for (size_t i = 0; i < cache_count; ++i) {
    const ObjectCacheStats& oc = caches[i];
    snprintf(line, sizeof(line),
             "      %-16s hits=%" PRIu64 " misses=%" PRIu64 " refills=%" PRIu64
             " flushes=%" PRIu64 " evictions=%" PRIu64
             " depot=%zu magazines=%zu depth=%zu\n",
             oc.name, oc.hits, oc.misses, oc.refills, oc.flushes, oc.evictions,
             oc.depot_depth, oc.magazine_count, oc.magazine_depth);
    out += line;
  }
  TimerEngineStats ts = timer_engine_stats();
  snprintf(line, sizeof(line),
           "TIMER shards=%d live=%" PRIu64 " pool_free=%" PRIu64
           " pool_alloc=%" PRIu64 "\n",
           ts.shards, ts.live, ts.pool_free, ts.pool_allocated);
  out += line;
  snprintf(line, sizeof(line),
           "      arms=%" PRIu64 " cancels=%" PRIu64 " fires=%" PRIu64
           " reaps=%" PRIu64 " cascades=%" PRIu64 "\n",
           ts.arms, ts.cancels, ts.fires, ts.reaps, ts.cascades);
  out += line;
  NetBackendStats ns;
  if (net_backend_snapshot(&ns)) {
    snprintf(line, sizeof(line), "NET backend=%s registered=%d parked=%d\n",
             ns.name, ns.registered, ns.parked);
    out += line;
  }
  inject::Counters inj = inject::Snapshot();
  if (inj.configured) {
    snprintf(line, sizeof(line),
             "INJECT %s seed=%" PRIu64 " rate=%g ops=0x%x yields=%" PRIu64
             " delays=%" PRIu64 " steal_biases=%" PRIu64 " faults=%" PRIu64
             " shorts=%" PRIu64 "\n",
             inj.enabled ? "on" : "off", inj.seed, inj.rate, inj.ops,
             inj.yields, inj.delays, inj.steal_biases, inj.faults, inj.shorts);
    out += line;
  }
  lockdep::CountersSnapshot ld = lockdep::Snapshot();
  if (ld.configured) {
    snprintf(line, sizeof(line),
             "LOCKDEP %s classes=%u checks=%" PRIu64 " edges=%" PRIu64
             " inversions=%" PRIu64 " deadlocks=%" PRIu64
             " held_overflows=%" PRIu64 "\n",
             ld.enabled ? "on" : "off", ld.classes, ld.checks, ld.edges,
             ld.inversions, ld.deadlocks, ld.held_overflows);
    out += line;
    // Per-thread held-lock stacks (only threads actually holding or waiting).
    if (Runtime::IsInitialized()) {
      Runtime::Get().ForEachThread([&out](Tcb* t) {
        char node[512];
        if (lockdep::FormatThreadNode(&t->lockdep_node, node, sizeof(node)) >
            0) {
          char hdr[64];
          snprintf(hdr, sizeof(hdr), "  thread %" PRIu64 ": ",
                   static_cast<uint64_t>(t->id));
          out += hdr;
          out += node;
          out += '\n';
        }
      });
    }
    char report[4096];
    if (lockdep::LastReport(report, sizeof(report)) > 0) {
      out += "  last report:\n";
      const char* p = report;
      while (*p != '\0') {
        const char* nl = strchr(p, '\n');
        out += "    ";
        if (nl != nullptr) {
          out.append(p, static_cast<size_t>(nl - p + 1));
          p = nl + 1;
        } else {
          out += p;
          out += '\n';
          break;
        }
      }
    }
  }
  if (Stats::Enabled()) {
    out += FormatStats();
  }
  return out;
}

void DumpProcessState(FILE* stream) {
  std::string s = FormatProcessState();
  fwrite(s.data(), 1, s.size(), stream);
}

}  // namespace sunmt
