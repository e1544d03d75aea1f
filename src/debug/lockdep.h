// Runtime lock-order and deadlock detector ("lockdep") for the threads package.
//
// Opt-in via SUNMT_DEBUG=lockorder (add ",panic" to abort on the first report),
// or programmatically with lockdep::Enable(). When off, every hook site costs a
// single relaxed atomic load and a predicted-not-taken branch — the same
// discipline as SUNMT_INJECT and the stats layer.
//
// Three cooperating structures:
//
//  1. Per-thread held-lock stack (a ThreadNode embedded in the TCB; raw kernel
//     threads such as the timer engine fall back to a thread_local node). Every
//     successful acquire pushes {object, class, pc}; release pops.
//
//  2. A global lock-*class* order graph. Sync objects are grouped into classes
//     keyed by (kind, init/first-acquire pc) — or by name once *_set_name() is
//     called — so the graph stays small no matter how many lock instances
//     exist. On each blocking acquire, an edge held-class -> wanted-class is
//     added; a DFS runs only when the edge is new. A cycle means a lock-order
//     inversion, reported at the *second* acquisition site, before any actual
//     deadlock can occur.
//
//  3. A thread<->owner wait-for graph walked when a thread blocks on a sync
//     object. Local hops follow owner TCB -> what it waits on; cross-process
//     hops (THREAD_SYNC_SHARED objects) follow a shared-memory breadcrumb: a
//     blocked thread stamps "I wait on <sid>" into every shared lock it holds,
//     where <sid> is a pid-salted id stored in the object itself. A stable
//     cycle (it must survive a confirmation re-walk ~1ms later, which kills
//     transient false positives from stale waiting_on fields) is a real
//     deadlock and is reported with the held-lock sets of every local
//     participant.
//
// Reports go to stderr, to the trace ring (TraceEvent::kLockdep) and are kept
// for FormatProcessState()'s LOCKDEP section.
//
// Layering: spinlock.h includes this header and spinlocks are used everywhere,
// so it includes only standard headers. lockdep.cc is part of the one sunmt
// library and calls the scheduler (a thread's node lives in its TCB) and the
// trace ring directly.

#ifndef SUNMT_SRC_DEBUG_LOCKDEP_H_
#define SUNMT_SRC_DEBUG_LOCKDEP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sunmt {
namespace lockdep {

// Kind of sync object a lock class covers; part of the class key so that e.g.
// a mutex and a condvar initialized at the same pc stay distinct classes.
enum Kind : uint8_t {
  kSpin = 0,
  kMutex = 1,
  kRwlock = 2,
  kSema = 3,
  kCondvar = 4,
};

// Debug word embedded in every sync variable (and, in compact form, in
// SpinLock). All fields are zero-init valid — a zeroed ObjDebug simply means
// "not yet classified / no owner". Lives in shared memory for
// THREAD_SYNC_SHARED objects: owner_node is only dereferenced when the pid
// half of owner_xpid matches the current process.
struct ObjDebug {
  std::atomic<uint32_t> class_id{0};  // 0 = unclassified
  std::atomic<uint32_t> sid{0};       // pid-salted shared id, 0 = unassigned
  std::atomic<uint64_t> owner_xpid{0};       // pid<<32 | tid of current owner
  std::atomic<void*> owner_node{nullptr};    // ThreadNode*, valid in owner pid
  std::atomic<uint32_t> blocked_on_sid{0};   // breadcrumb: holder waits on sid
};

// Acquire/release flags.
enum : uint32_t {
  kFlagTry = 1u << 0,     // trylock / timed: no order check was run
  kFlagShared = 1u << 1,  // THREAD_SYNC_SHARED object (lives in shared memory)
  kFlagOwner = 1u << 2,   // track/clear exclusive ownership (wait-for graph)
};

inline constexpr uint32_t kMaxHeld = 16;

// One slot of a held-lock stack. Individually-atomic fields: readers (reports,
// introspection) may observe a torn stack, never a data race.
struct HeldEntry {
  std::atomic<const void*> obj{nullptr};
  std::atomic<uint32_t> cls{0};
  std::atomic<uint32_t> flags{0};
  std::atomic<uint64_t> pc{0};
};

// Per-thread lockdep state. Embedded in the TCB; thread_local fallback for
// kernel threads without one.
struct ThreadNode {
  std::atomic<uint64_t> tid{0};
  std::atomic<uint32_t> depth{0};
  std::atomic<ObjDebug*> waiting_on{nullptr};
  std::atomic<bool> deadlock_reported{false};
  HeldEntry held[kMaxHeld];
};

namespace internal {
extern std::atomic<uint32_t> g_enabled;  // bit0 = on, bit1 = panic on report
uint32_t AllocKernelTid();
extern thread_local uint32_t t_kernel_tid;
}  // namespace internal

// The one-load fast path. Hook sites do `if (lockdep::Enabled())` so the off
// cost is a relaxed load plus an untaken branch.
inline bool Enabled() {
  return __builtin_expect(
             internal::g_enabled.load(std::memory_order_relaxed) != 0, 0);
}

// Small dense id for the calling *kernel* thread (never 0). Used by SpinLock
// ownership tracking, which is per-kernel-thread: a user thread cannot migrate
// LWPs while holding a spinlock (migration only happens through the scheduler,
// and the one descheduling-with-qlock-held path hands the lock to the
// dispatcher on the same kernel thread).
inline uint32_t KernelTid() {
  uint32_t v = internal::t_kernel_tid;
  if (__builtin_expect(v == 0, 0)) {
    v = internal::AllocKernelTid();
  }
  return v;
}

// ---- Hooks (call only when Enabled(); all are safe no-ops when racing a
// ---- disable, reentrancy-guarded, and never allocate).

// *_init: reset debug state for (possibly reused) storage; classify from the
// init site when the detector is on. Call unconditionally — a few stores.
void OnInit(ObjDebug* d, Kind kind, uintptr_t pc);
// Before a blocking acquire: classify, add held->wanted edges, DFS new edges.
void OnAcquireCheck(ObjDebug* d, Kind kind, uintptr_t pc);
// After a successful acquire: push held entry, record ownership.
void OnAcquired(ObjDebug* d, Kind kind, uintptr_t pc, uint32_t flags);
// On release: pop held entry; clear ownership if kFlagOwner. A semaphore
// released by a thread that does not hold it marks its class a counter: from
// then on it is never held and adds no order edges.
void OnRelease(ObjDebug* d, uint32_t flags);
// rw_downgrade: writer becomes reader — ownership gone, lock still held.
void OnDowngrade(ObjDebug* d);
// rw_tryupgrade success: reader became writer — record exclusive ownership
// (the held entry pushed at rw_enter time stays).
void OnUpgrade(ObjDebug* d, uint32_t flags);
// About to sleep waiting for d: publish waiting_on (+ shared breadcrumbs) and
// walk the wait-for graph for a deadlock cycle.
void OnBlock(ObjDebug* d, Kind kind, uint32_t flags);
// Woken up (acquired or retrying): clear waiting_on and breadcrumbs.
void OnUnblock();

// SpinLock variants: classes live in a bare uint32 word (SpinLock is embedded
// everywhere and stays 8 bytes of debug state, not a full ObjDebug). The check
// runs *before* the spin so an AB/BA spin livelock is still reported.
// `level`: hierarchy annotation baked into the class (0 = none).
void OnSpinAcquire(const void* obj, std::atomic<uint32_t>* cls_word,
                   uintptr_t pc, uint8_t level, uint32_t flags);
void OnSpinRelease(const void* obj);
// sched::Block() hands the queue lock to the dispatcher, which unlocks it on
// a stack where CurrentTcb() is null — pop the blocked thread's entry now.
inline void OnSpinHandoff(const void* obj) { OnSpinRelease(obj); }

// ---- Naming / annotation (work whether or not lockdep is enabled).

// Assign the object to a class named `name` (truncated to 31 chars). Objects
// sharing a name share a class.
void SetName(ObjDebug* d, Kind kind, const char* name);
// Hierarchy annotation: acquiring a lock whose class level is strictly higher
// than every annotated lock already held is exempt from order tracking, and
// same-class nesting is permitted for annotated classes (the "locks taken in
// address order" idiom). Level must be in [1, 255].
void SetOrder(ObjDebug* d, Kind kind, int level, uintptr_t pc);

// ---- Introspection.

struct CountersSnapshot {
  bool configured;  // SUNMT_DEBUG seen or Enable() ever called
  bool enabled;
  uint32_t classes;
  uint64_t checks;
  uint64_t edges;
  uint64_t inversions;
  uint64_t deadlocks;
  uint64_t held_overflows;
};
CountersSnapshot Snapshot();

// Stable name of a class id ("" for 0/out of range).
const char* ClassName(uint32_t cls);
// Copy of the most recent report ('\0'-terminated); returns bytes written.
size_t LastReport(char* buf, size_t cap);
// "held: a@0x.. b@0x.. waiting: c" for one thread; returns bytes written
// (0 if nothing held and not waiting).
size_t FormatThreadNode(const ThreadNode* n, char* buf, size_t cap);

// ---- Control.

void Enable(bool panic_on_report);
void Disable();
// Test hook: clears the order graph, counters, and last report. Lock classes
// survive (they are interned by key). Callers must quiesce lock traffic that
// could race the wipe — in-tree tests only.
void ResetForTest();
// fork1() child repair (Runtime::ResetAfterFork): the child's pid, and the
// detector's two raw locks.
void ResetAfterFork();

// Report kind, as the kLockdep trace event's arg carries it.
enum ReportKind : uint8_t { kReportInversion = 1, kReportDeadlock = 2 };

}  // namespace lockdep
}  // namespace sunmt

#endif  // SUNMT_SRC_DEBUG_LOCKDEP_H_
