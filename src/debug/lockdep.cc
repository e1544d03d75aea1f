// Lock-order / deadlock detector implementation. See lockdep.h for the model.
//
// Constraints that shape the code:
//  - Hooks run inside the package's own critical sections (including under
//    SpinLocks and from the signal-safe sema_v path), so nothing here may
//    allocate, take a package lock, or re-enter itself: internal mutual
//    exclusion is a raw test-and-set word, and every entry point is guarded by
//    a thread_local busy flag.
//  - All cross-thread state (held stacks, owner fields, class table reads) is
//    either atomic or published behind an acquire/release counter, so the
//    detector itself is clean under TSan.
//  - ObjDebug lives inside sync variables that may sit in shared memory; only
//    pid-tagged fields are trusted across processes.

#include "src/debug/lockdep.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/scheduler.h"
#include "src/core/trace.h"
#include "src/inject/inject.h"

namespace sunmt {
namespace lockdep {

namespace internal {
std::atomic<uint32_t> g_enabled{0};
thread_local uint32_t t_kernel_tid = 0;

uint32_t AllocKernelTid() {
  static std::atomic<uint32_t> next{0};
  t_kernel_tid = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return t_kernel_tid;
}
}  // namespace internal

namespace {

constexpr uint32_t kMaxClasses = 256;
constexpr uint32_t kMaxEdges = 2048;
constexpr uint32_t kSidSlots = 512;
constexpr int kMaxHops = 16;
constexpr size_t kReportCap = 4096;

inline void Relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Reentrancy guard: hooks can nest (e.g. a perturbation yields into code that
// takes a spinlock, or sema_v fires from a signal handler mid-hook). Only the
// outermost activation does work.
thread_local bool t_busy = false;
struct BusyScope {
  bool entered;
  BusyScope() : entered(!t_busy) {
    if (entered) t_busy = true;
  }
  ~BusyScope() {
    if (entered) t_busy = false;
  }
};

std::atomic<uint32_t> g_pid{0};
std::atomic<bool> g_configured{false};

uint32_t Pid() {
  uint32_t p = g_pid.load(std::memory_order_relaxed);
  if (__builtin_expect(p == 0, 0)) {
    p = static_cast<uint32_t>(getpid());
    g_pid.store(p, std::memory_order_relaxed);
  }
  return p;
}

// ---- Internal lock (raw word; never a package SpinLock — hooks would recurse).

std::atomic<uint32_t> g_graph_lock{0};

void LockGraph() {
  uint32_t spins = 0;
  while (g_graph_lock.exchange(1, std::memory_order_acquire) != 0) {
    if (++spins > 64) {
      sched_yield();
    } else {
      Relax();
    }
  }
}

void UnlockGraph() { g_graph_lock.store(0, std::memory_order_release); }

// ---- Lock classes. Entries are immutable once published via g_class_count
// ---- (release store), except hier_level which is atomic.

struct LockClass {
  uint64_t key = 0;
  uintptr_t pc = 0;
  uint8_t kind = 0;
  std::atomic<uint8_t> hier_level{0};
  // A semaphore class one of whose objects was V'd by a thread that did not
  // hold it: a counter, not a lock, so it takes no part in the order graph.
  std::atomic<bool> counter{false};
  char name[40] = {0};
};

LockClass g_classes[kMaxClasses];
std::atomic<uint32_t> g_class_count{1};  // index 0 = unclassified/overflow

const char* KindName(uint8_t k) {
  switch (k) {
    case kSpin:
      return "spin";
    case kMutex:
      return "mutex";
    case kRwlock:
      return "rwlock";
    case kSema:
      return "sema";
    case kCondvar:
      return "cv";
  }
  return "?";
}

uint64_t FnvHash(const char* s) {
  uint64_t h = 1469598103934665603ull;
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<uint8_t>(*s)) * 1099511628211ull;
  }
  return h;
}

uint32_t InternClass(Kind kind, uintptr_t pc, const char* name, uint8_t level) {
  uint64_t key;
  if (name != nullptr) {
    key = (1ull << 63) | (static_cast<uint64_t>(kind) << 56) |
          (FnvHash(name) & 0xffffffffffffull);
  } else {
    key = (static_cast<uint64_t>(kind) << 56) |
          (static_cast<uint64_t>(pc) & 0xffffffffffffull);
  }
  if (key == 0) key = 1;
  uint32_t count = g_class_count.load(std::memory_order_acquire);
  for (uint32_t i = 1; i < count; ++i) {
    if (g_classes[i].key == key) return i;
  }
  LockGraph();
  count = g_class_count.load(std::memory_order_acquire);
  for (uint32_t i = 1; i < count; ++i) {
    if (g_classes[i].key == key) {
      UnlockGraph();
      return i;
    }
  }
  if (count >= kMaxClasses) {
    UnlockGraph();
    return 0;  // table full: objects stay unclassified, checks skip them
  }
  LockClass& c = g_classes[count];
  c.key = key;
  c.pc = pc;
  c.kind = kind;
  c.hier_level.store(level, std::memory_order_relaxed);
  if (name != nullptr) {
    snprintf(c.name, sizeof(c.name), "%s", name);
  } else {
    snprintf(c.name, sizeof(c.name), "%s@0x%" PRIxPTR, KindName(kind), pc);
  }
  g_class_count.store(count + 1, std::memory_order_release);
  UnlockGraph();
  return count;
}

uint8_t LevelOf(uint32_t cls) {
  if (cls == 0 || cls >= g_class_count.load(std::memory_order_acquire)) {
    return 0;
  }
  return g_classes[cls].hier_level.load(std::memory_order_relaxed);
}

bool IsCounter(uint32_t cls) {
  return cls != 0 && cls < g_class_count.load(std::memory_order_acquire) &&
         g_classes[cls].counter.load(std::memory_order_relaxed);
}

uint32_t ClassOf(ObjDebug* d, Kind kind, uintptr_t pc) {
  uint32_t c = d->class_id.load(std::memory_order_acquire);
  if (c != 0) return c;
  c = InternClass(kind, pc, nullptr, 0);
  if (c == 0) return 0;
  uint32_t expect = 0;
  if (!d->class_id.compare_exchange_strong(expect, c,
                                           std::memory_order_acq_rel)) {
    c = expect;  // another thread (or process) classified first
  }
  return c;
}

// ---- Order graph: adjacency bitmap + bounded edge-provenance records.

std::atomic<uint64_t> g_edge_bits[kMaxClasses][kMaxClasses / 64];

struct EdgeRec {  // immutable once published via g_edge_count
  uint16_t from = 0;
  uint16_t to = 0;
  uint64_t tid = 0;
  uintptr_t acquire_pc = 0;  // site acquiring `to`
  uintptr_t held_pc = 0;     // site where `from` was acquired
};

EdgeRec g_edge_recs[kMaxEdges];
std::atomic<uint32_t> g_edge_count{0};

bool EdgeExists(uint32_t from, uint32_t to) {
  return (g_edge_bits[from][to >> 6].load(std::memory_order_relaxed) &
          (1ull << (to & 63))) != 0;
}

const EdgeRec* FindEdgeRec(uint32_t from, uint32_t to) {
  uint32_t count = g_edge_count.load(std::memory_order_acquire);
  if (count > kMaxEdges) count = kMaxEdges;
  for (uint32_t i = 0; i < count; ++i) {
    if (g_edge_recs[i].from == from && g_edge_recs[i].to == to) {
      return &g_edge_recs[i];
    }
  }
  return nullptr;
}

// BFS over existing edges: shortest path src -> dst, or 0 if unreachable.
// Caller holds the graph lock. path gets dst-last order: src, ..., dst.
int FindPath(uint32_t src, uint32_t dst, uint16_t* path) {
  if (src == dst) {
    path[0] = static_cast<uint16_t>(src);
    return 1;
  }
  uint16_t parent[kMaxClasses];
  uint64_t visited[kMaxClasses / 64] = {0};
  uint16_t queue[kMaxClasses];
  int head = 0;
  int tail = 0;
  queue[tail++] = static_cast<uint16_t>(src);
  visited[src >> 6] |= 1ull << (src & 63);
  while (head < tail) {
    uint32_t u = queue[head++];
    for (uint32_t w = 0; w < kMaxClasses / 64; ++w) {
      uint64_t bits = g_edge_bits[u][w].load(std::memory_order_relaxed);
      while (bits != 0) {
        uint32_t v = w * 64 + static_cast<uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if ((visited[v >> 6] & (1ull << (v & 63))) != 0) continue;
        visited[v >> 6] |= 1ull << (v & 63);
        parent[v] = static_cast<uint16_t>(u);
        if (v == dst) {
          int len = 0;
          uint32_t cur = v;
          while (cur != src) {
            ++len;
            cur = parent[cur];
          }
          ++len;
          cur = v;
          for (int i = len - 1; i >= 0; --i) {
            path[i] = static_cast<uint16_t>(cur);
            cur = (i > 0) ? parent[cur] : cur;
          }
          return len;
        }
        if (tail < static_cast<int>(kMaxClasses)) {
          queue[tail++] = static_cast<uint16_t>(v);
        }
      }
    }
  }
  return 0;
}

// ---- Counters.

std::atomic<uint64_t> g_checks{0};
std::atomic<uint64_t> g_edges{0};
std::atomic<uint64_t> g_inversions{0};
std::atomic<uint64_t> g_deadlocks{0};
std::atomic<uint64_t> g_held_overflows{0};

// ---- Report buffer (latest report wins; FormatProcessState shows it).

std::atomic<uint32_t> g_report_lock{0};
char g_report[kReportCap];
std::atomic<uint32_t> g_report_len{0};

void LockReport() {
  while (g_report_lock.exchange(1, std::memory_order_acquire) != 0) {
    Relax();
  }
}

void UnlockReport() { g_report_lock.store(0, std::memory_order_release); }

// ---- Per-thread nodes.

thread_local ThreadNode t_fallback_node;

// User threads carry their node in the TCB, so reports name them by thread
// id. A kernel thread running no thread (a dispatch context, the service
// thread, a raw pthread) falls back to a thread_local node with an id
// synthesized out of thread-id space.
ThreadNode* CurrentNode() {
  if (Tcb* self = sched::CurrentTcb()) {
    self->lockdep_node.tid.store(static_cast<uint64_t>(self->id),
                                 std::memory_order_relaxed);
    return &self->lockdep_node;
  }
  ThreadNode* n = &t_fallback_node;
  if (n->tid.load(std::memory_order_relaxed) == 0) {
    n->tid.store((1ull << 48) | KernelTid(), std::memory_order_relaxed);
  }
  return n;
}

uint64_t PackXpid(const ThreadNode* n) {
  return (static_cast<uint64_t>(Pid()) << 32) |
         (n->tid.load(std::memory_order_relaxed) & 0xffffffffull);
}

void PushHeld(ThreadNode* n, const void* obj, uint32_t cls, uint32_t flags,
              uintptr_t pc) {
  uint32_t depth = n->depth.load(std::memory_order_relaxed);
  if (depth >= kMaxHeld) {
    g_held_overflows.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  HeldEntry& e = n->held[depth];
  e.obj.store(obj, std::memory_order_relaxed);
  e.cls.store(cls, std::memory_order_relaxed);
  e.flags.store(flags, std::memory_order_relaxed);
  e.pc.store(pc, std::memory_order_relaxed);
  n->depth.store(depth + 1, std::memory_order_release);
}

bool HeldContains(const ThreadNode* n, const void* obj) {
  uint32_t depth = n->depth.load(std::memory_order_relaxed);
  if (depth > kMaxHeld) depth = kMaxHeld;
  for (uint32_t i = 0; i < depth; ++i) {
    if (n->held[i].obj.load(std::memory_order_relaxed) == obj) return true;
  }
  return false;
}

void PopHeld(ThreadNode* n, const void* obj) {
  uint32_t depth = n->depth.load(std::memory_order_relaxed);
  if (depth > kMaxHeld) depth = kMaxHeld;
  for (int i = static_cast<int>(depth) - 1; i >= 0; --i) {
    if (n->held[i].obj.load(std::memory_order_relaxed) != obj) continue;
    for (uint32_t j = static_cast<uint32_t>(i); j + 1 < depth; ++j) {
      HeldEntry& dst = n->held[j];
      HeldEntry& src = n->held[j + 1];
      dst.obj.store(src.obj.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      dst.cls.store(src.cls.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      dst.flags.store(src.flags.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      dst.pc.store(src.pc.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
    n->depth.store(depth - 1, std::memory_order_release);
    return;
  }
  // Not found: lock acquired before lockdep was enabled, handed off to the
  // dispatcher (OnSpinHandoff already popped it), or overflowed the stack.
}

// ---- Shared-object id map (process-local sid -> ObjDebug*).

struct SidSlot {
  std::atomic<uint32_t> sid{0};
  std::atomic<ObjDebug*> obj{nullptr};
};

SidSlot g_sids[kSidSlots];
std::atomic<uint32_t> g_sid_seq{0};

void RegisterSid(uint32_t sid, ObjDebug* d) {
  uint32_t h = sid % kSidSlots;
  for (uint32_t probe = 0; probe < kSidSlots; ++probe) {
    SidSlot& slot = g_sids[(h + probe) % kSidSlots];
    uint32_t cur = slot.sid.load(std::memory_order_acquire);
    if (cur == sid) {
      slot.obj.store(d, std::memory_order_release);  // remap (new mapping wins)
      return;
    }
    if (cur == 0) {
      uint32_t expect = 0;
      if (slot.sid.compare_exchange_strong(expect, sid,
                                           std::memory_order_acq_rel)) {
        slot.obj.store(d, std::memory_order_release);
        return;
      }
      if (expect == sid) {
        slot.obj.store(d, std::memory_order_release);
        return;
      }
    }
  }
  // Map full: cross-process walks through this object stop early. Harmless.
}

ObjDebug* SidLookup(uint32_t sid) {
  if (sid == 0) return nullptr;
  uint32_t h = sid % kSidSlots;
  for (uint32_t probe = 0; probe < kSidSlots; ++probe) {
    SidSlot& slot = g_sids[(h + probe) % kSidSlots];
    uint32_t cur = slot.sid.load(std::memory_order_acquire);
    if (cur == sid) return slot.obj.load(std::memory_order_acquire);
    if (cur == 0) return nullptr;
  }
  return nullptr;
}

uint32_t EnsureSid(ObjDebug* d) {
  uint32_t s = d->sid.load(std::memory_order_acquire);
  if (s == 0) {
    uint32_t fresh = ((Pid() & 0x7ffu) << 20) |
                     ((g_sid_seq.fetch_add(1, std::memory_order_relaxed) + 1) &
                      0xfffffu);
    if (fresh == 0) fresh = 1;
    uint32_t expect = 0;
    if (d->sid.compare_exchange_strong(expect, fresh,
                                       std::memory_order_acq_rel)) {
      s = fresh;
    } else {
      s = expect;  // another process won the race
    }
  }
  RegisterSid(s, d);
  return s;
}

// Stamp "this thread now waits on sid" into every shared lock it holds, so
// foreign walkers can follow the chain; 0 clears the breadcrumbs.
void StampHints(ThreadNode* n, uint32_t sid) {
  uint32_t depth = n->depth.load(std::memory_order_relaxed);
  if (depth > kMaxHeld) depth = kMaxHeld;
  for (uint32_t i = 0; i < depth; ++i) {
    if ((n->held[i].flags.load(std::memory_order_relaxed) & kFlagShared) == 0) {
      continue;
    }
    auto* obj = static_cast<ObjDebug*>(const_cast<void*>(
        n->held[i].obj.load(std::memory_order_relaxed)));
    if (obj != nullptr) {
      obj->blocked_on_sid.store(sid, std::memory_order_seq_cst);
    }
  }
}

// ---- Report rendering.

size_t AppendF(char* buf, size_t cap, size_t off, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

size_t AppendF(char* buf, size_t cap, size_t off, const char* fmt, ...) {
  if (off >= cap) return off;
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf + off, cap - off, fmt, ap);
  va_end(ap);
  if (n < 0) return off;
  size_t next = off + static_cast<size_t>(n);
  return next < cap ? next : cap - 1;
}

const char* ClassNameOrQ(uint32_t cls) {
  if (cls == 0 || cls >= g_class_count.load(std::memory_order_acquire)) {
    return "?";
  }
  return g_classes[cls].name;
}

size_t FormatNodeInto(const ThreadNode* n, char* buf, size_t cap, size_t off) {
  uint32_t depth = n->depth.load(std::memory_order_acquire);
  if (depth > kMaxHeld) depth = kMaxHeld;
  off = AppendF(buf, cap, off, "held=[");
  for (uint32_t i = 0; i < depth; ++i) {
    const void* obj = n->held[i].obj.load(std::memory_order_relaxed);
    if (obj == nullptr) continue;
    off = AppendF(buf, cap, off, "%s%s@0x%llx", i == 0 ? "" : " ",
                  ClassNameOrQ(n->held[i].cls.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      n->held[i].pc.load(std::memory_order_relaxed)));
  }
  off = AppendF(buf, cap, off, "]");
  ObjDebug* w = n->waiting_on.load(std::memory_order_acquire);
  if (w != nullptr) {
    off = AppendF(buf, cap, off, " waiting=%s",
                  ClassNameOrQ(w->class_id.load(std::memory_order_acquire)));
  }
  return off;
}

void EmitReport(uint8_t report_kind, uint16_t from, uint16_t to, uint64_t tid) {
  Trace::Record(TraceEvent::kLockdep, tid,
                (static_cast<uint64_t>(report_kind) << 32) |
                    (static_cast<uint64_t>(from) << 16) | to);
  LockReport();
  fprintf(stderr, "%s", g_report);
  fflush(stderr);
  UnlockReport();
  if ((internal::g_enabled.load(std::memory_order_relaxed) & 2u) != 0) {
    abort();
  }
}

void ReportInversion(ThreadNode* n, uint32_t from, uint32_t to, uintptr_t pc,
                     uintptr_t held_pc, const uint16_t* path, int plen) {
  uint64_t tid = n->tid.load(std::memory_order_relaxed);
  LockReport();
  char* b = g_report;
  size_t off = 0;
  off = AppendF(b, kReportCap, off,
                "LOCKDEP: lock-order inversion: acquiring \"%s\" while holding "
                "\"%s\" closes a cycle\n",
                ClassNameOrQ(to), ClassNameOrQ(from));
  off = AppendF(b, kReportCap, off,
                "  thread %" PRIu64 " (pid %u) acquiring \"%s\" at 0x%llx, "
                "holds \"%s\" (acquired at 0x%llx)\n",
                tid, Pid(), ClassNameOrQ(to),
                static_cast<unsigned long long>(pc), ClassNameOrQ(from),
                static_cast<unsigned long long>(held_pc));
  off = AppendF(b, kReportCap, off, "  established order:\n");
  for (int i = 0; i + 1 < plen; ++i) {
    const EdgeRec* rec = FindEdgeRec(path[i], path[i + 1]);
    if (rec != nullptr) {
      off = AppendF(b, kReportCap, off,
                    "    \"%s\" -> \"%s\": thread %" PRIu64
                    " acquired at 0x%llx while holding since 0x%llx\n",
                    ClassNameOrQ(rec->from), ClassNameOrQ(rec->to), rec->tid,
                    static_cast<unsigned long long>(rec->acquire_pc),
                    static_cast<unsigned long long>(rec->held_pc));
    } else {
      off = AppendF(b, kReportCap, off, "    \"%s\" -> \"%s\"\n",
                    ClassNameOrQ(path[i]), ClassNameOrQ(path[i + 1]));
    }
  }
  if (plen == 1) {
    off = AppendF(b, kReportCap, off,
                  "    (same class nested; annotate with *_set_order() if "
                  "intentional)\n");
  }
  off = AppendF(b, kReportCap, off, "  thread %" PRIu64 " now: ", tid);
  off = FormatNodeInto(n, b, kReportCap, off);
  off = AppendF(b, kReportCap, off, "\n");
  g_report_len.store(static_cast<uint32_t>(off), std::memory_order_release);
  UnlockReport();
  // Counted only once stored: a reader that sees the count (acquire, in
  // Snapshot) then finds this report, not the previous one.
  g_inversions.fetch_add(1, std::memory_order_release);
  EmitReport(kReportInversion, static_cast<uint16_t>(from),
             static_cast<uint16_t>(to), tid);
}

// ---- Order checking.

void AddEdgeAndCheck(ThreadNode* n, uint32_t from, uint32_t to, uintptr_t pc,
                     uintptr_t held_pc) {
  uint16_t path[kMaxClasses];
  int plen = 0;
  LockGraph();
  if (EdgeExists(from, to)) {
    UnlockGraph();
    return;
  }
  // Does `from` become reachable from `to`? Then from->to closes a cycle.
  plen = FindPath(to, from, path);
  g_edge_bits[from][to >> 6].fetch_or(1ull << (to & 63),
                                      std::memory_order_relaxed);
  uint32_t slot = g_edge_count.load(std::memory_order_relaxed);
  if (slot < kMaxEdges) {
    EdgeRec& rec = g_edge_recs[slot];
    rec.from = static_cast<uint16_t>(from);
    rec.to = static_cast<uint16_t>(to);
    rec.tid = n->tid.load(std::memory_order_relaxed);
    rec.acquire_pc = pc;
    rec.held_pc = held_pc;
    g_edge_count.store(slot + 1, std::memory_order_release);
  }
  UnlockGraph();
  g_edges.fetch_add(1, std::memory_order_relaxed);
  if (plen > 0) {
    ReportInversion(n, from, to, pc, held_pc, path, plen);
  }
}

void CheckAcquire(ThreadNode* n, const void* acquiring, uint32_t to,
                  uintptr_t pc) {
  g_checks.fetch_add(1, std::memory_order_relaxed);
  inject::Perturb(inject::kLockdep);
  if (to == 0 || IsCounter(to)) return;
  uint8_t to_lvl = LevelOf(to);
  uint32_t depth = n->depth.load(std::memory_order_relaxed);
  if (depth > kMaxHeld) depth = kMaxHeld;
  for (uint32_t i = 0; i < depth; ++i) {
    uint32_t from = n->held[i].cls.load(std::memory_order_relaxed);
    // A counter P'd before its class was found out still sits here.
    if (from == 0 || IsCounter(from)) continue;
    // Re-entry on the very same object is not an ordering problem: a counting
    // semaphore P'd twice, or a self-relock (the wait-for walk reports that).
    if (n->held[i].obj.load(std::memory_order_relaxed) == acquiring) continue;
    // Hierarchy annotation: climbing to a strictly higher annotated level
    // (unannotated held locks count as level 0) is declared safe; same-class
    // nesting of an annotated class is the sanctioned address-order idiom.
    if (to_lvl > 0 && LevelOf(from) < to_lvl) continue;
    if (from == to && to_lvl > 0) continue;
    if (EdgeExists(from, to)) continue;
    AddEdgeAndCheck(n, from, to, pc,
                    static_cast<uintptr_t>(
                        n->held[i].pc.load(std::memory_order_relaxed)));
  }
}

// ---- Wait-for graph walk.

struct Hop {
  ObjDebug* obj;
  uint64_t xpid;
};

// Follow owner links from `start` until the chain dies out, hops out, or
// returns to `self`. Returns hop count on a cycle, -1 otherwise.
int WalkOnce(ThreadNode* self, ObjDebug* start, Hop* hops) {
  uint64_t self_xpid = PackXpid(self);
  uint32_t pid = Pid();
  ObjDebug* obj = start;
  for (int i = 0; i < kMaxHops; ++i) {
    uint64_t xpid = obj->owner_xpid.load(std::memory_order_seq_cst);
    if (xpid == 0) return -1;
    hops[i].obj = obj;
    hops[i].xpid = xpid;
    if (xpid == self_xpid) return i + 1;
    if (static_cast<uint32_t>(xpid >> 32) == pid) {
      auto* owner = static_cast<ThreadNode*>(
          obj->owner_node.load(std::memory_order_seq_cst));
      if (owner == nullptr) return -1;
      if (owner == self) return i + 1;
      obj = owner->waiting_on.load(std::memory_order_seq_cst);
    } else {
      obj = SidLookup(obj->blocked_on_sid.load(std::memory_order_seq_cst));
    }
    if (obj == nullptr) return -1;
  }
  return -1;
}

void ReportDeadlock(ThreadNode* self, ObjDebug* start, const Hop* hops,
                    int count) {
  uint64_t tid = self->tid.load(std::memory_order_relaxed);
  uint32_t pid = Pid();
  uint16_t start_cls = static_cast<uint16_t>(
      start->class_id.load(std::memory_order_acquire));
  uint16_t last_cls = static_cast<uint16_t>(
      hops[count - 1].obj->class_id.load(std::memory_order_acquire));
  LockReport();
  char* b = g_report;
  size_t off = 0;
  off = AppendF(b, kReportCap, off,
                "LOCKDEP: deadlock: thread %" PRIu64
                " (pid %u) blocked on \"%s\"; cycle of %d lock(s):\n",
                tid, pid, ClassNameOrQ(start_cls), count);
  off = AppendF(b, kReportCap, off, "  waiter thread %" PRIu64 ": ", tid);
  off = FormatNodeInto(self, b, kReportCap, off);
  off = AppendF(b, kReportCap, off, "\n");
  for (int i = 0; i < count; ++i) {
    uint32_t cls = hops[i].obj->class_id.load(std::memory_order_acquire);
    uint32_t owner_pid = static_cast<uint32_t>(hops[i].xpid >> 32);
    uint64_t owner_tid = hops[i].xpid & 0xffffffffull;
    off = AppendF(b, kReportCap, off,
                  "  #%d \"%s\" held by pid %u thread %" PRIu64, i,
                  ClassNameOrQ(cls), owner_pid, owner_tid);
    if (owner_pid == pid) {
      auto* owner = static_cast<ThreadNode*>(
          hops[i].obj->owner_node.load(std::memory_order_seq_cst));
      if (owner != nullptr) {
        off = AppendF(b, kReportCap, off, ": ");
        off = FormatNodeInto(owner, b, kReportCap, off);
      }
    } else {
      off = AppendF(b, kReportCap, off, " (foreign process, sid %u)",
                    hops[i].obj->sid.load(std::memory_order_acquire));
    }
    off = AppendF(b, kReportCap, off, "\n");
  }
  g_report_len.store(static_cast<uint32_t>(off), std::memory_order_release);
  UnlockReport();
  g_deadlocks.fetch_add(1, std::memory_order_release);  // see ReportInversion
  EmitReport(kReportDeadlock, start_cls, last_cls, tid);
}

void WalkAndMaybeReport(ThreadNode* self, ObjDebug* start) {
  Hop hops[kMaxHops];
  if (WalkOnce(self, start, hops) < 0) return;
  // Tentative cycle: a stale waiting_on (thread popped from the sleep queue
  // but not yet dispatched) can fabricate one. Re-walk after a pause; a real
  // deadlock is stable, a transient one resolves.
  sched_yield();
  struct timespec ts = {0, 1000000};  // 1ms
  nanosleep(&ts, nullptr);
  int count = WalkOnce(self, start, hops);
  if (count < 0) return;
  if (self->deadlock_reported.exchange(true, std::memory_order_acq_rel)) {
    return;  // already reported for this block
  }
  ReportDeadlock(self, start, hops, count);
}

// ---- SUNMT_DEBUG env at static-init time.

struct EnvInit {
  EnvInit() {
    g_pid.store(static_cast<uint32_t>(getpid()), std::memory_order_relaxed);
    const char* spec = getenv("SUNMT_DEBUG");
    if (spec == nullptr) return;
    g_configured.store(true, std::memory_order_relaxed);
    if (strstr(spec, "lockorder") != nullptr) {
      uint32_t flags = 1;
      if (strstr(spec, "panic") != nullptr) flags |= 2;
      internal::g_enabled.store(flags, std::memory_order_relaxed);
    }
  }
};
EnvInit g_env_init;

}  // namespace

// ---- Public hooks.

void OnInit(ObjDebug* d, Kind kind, uintptr_t pc) {
  d->class_id.store(0, std::memory_order_relaxed);
  d->sid.store(0, std::memory_order_relaxed);
  d->owner_xpid.store(0, std::memory_order_relaxed);
  d->owner_node.store(nullptr, std::memory_order_relaxed);
  d->blocked_on_sid.store(0, std::memory_order_relaxed);
  if (!Enabled()) return;
  BusyScope busy;
  if (!busy.entered) return;
  ClassOf(d, kind, pc);
}

void OnAcquireCheck(ObjDebug* d, Kind kind, uintptr_t pc) {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  CheckAcquire(n, d, ClassOf(d, kind, pc), pc);
}

void OnAcquired(ObjDebug* d, Kind kind, uintptr_t pc, uint32_t flags) {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  uint32_t cls = ClassOf(d, kind, pc);
  // Semaphore credits are not paired acquire/release by thread: a handshake
  // P's credits its partner V's, so the same object would otherwise pile up
  // one held entry per round trip. One entry per object is enough to catch
  // sema-as-lock ordering bugs, and none for a known counter.
  if (kind != kSema || !(IsCounter(cls) || HeldContains(n, d))) {
    PushHeld(n, d, cls, flags, pc);
  }
  if ((flags & kFlagShared) != 0) {
    EnsureSid(d);
  }
  if ((flags & kFlagOwner) != 0) {
    d->owner_node.store(n, std::memory_order_seq_cst);
    d->owner_xpid.store(PackXpid(n), std::memory_order_seq_cst);
  }
}

void OnRelease(ObjDebug* d, uint32_t flags) {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  // A semaphore V'd by a thread that does not hold it is passing a credit.
  uint32_t cls = d->class_id.load(std::memory_order_acquire);
  if (cls != 0 && cls < g_class_count.load(std::memory_order_acquire) &&
      g_classes[cls].kind == kSema && !HeldContains(n, d)) {
    g_classes[cls].counter.store(true, std::memory_order_relaxed);
  }
  if ((flags & kFlagOwner) != 0) {
    d->owner_node.store(nullptr, std::memory_order_seq_cst);
    d->owner_xpid.store(0, std::memory_order_seq_cst);
    d->blocked_on_sid.store(0, std::memory_order_seq_cst);
  }
  PopHeld(n, d);
}

void OnDowngrade(ObjDebug* d) {
  BusyScope busy;
  if (!busy.entered) return;
  d->owner_node.store(nullptr, std::memory_order_seq_cst);
  d->owner_xpid.store(0, std::memory_order_seq_cst);
  d->blocked_on_sid.store(0, std::memory_order_seq_cst);
}

void OnUpgrade(ObjDebug* d, uint32_t flags) {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  if ((flags & kFlagShared) != 0) {
    EnsureSid(d);
  }
  d->owner_node.store(n, std::memory_order_seq_cst);
  d->owner_xpid.store(PackXpid(n), std::memory_order_seq_cst);
}

void OnBlock(ObjDebug* d, Kind kind, uint32_t flags) {
  (void)kind;
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  n->waiting_on.store(d, std::memory_order_seq_cst);
  inject::Perturb(inject::kLockdep);
  if ((flags & kFlagShared) != 0) {
    StampHints(n, EnsureSid(d));
  }
  WalkAndMaybeReport(n, d);
}

void OnUnblock() {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  n->waiting_on.store(nullptr, std::memory_order_seq_cst);
  n->deadlock_reported.store(false, std::memory_order_relaxed);
  StampHints(n, 0);
}

void OnSpinAcquire(const void* obj, std::atomic<uint32_t>* cls_word,
                   uintptr_t pc, uint8_t level, uint32_t flags) {
  BusyScope busy;
  if (!busy.entered) return;
  ThreadNode* n = CurrentNode();
  uint32_t cls = cls_word->load(std::memory_order_acquire);
  if (cls == 0) {
    cls = InternClass(kSpin, pc, nullptr, level);
    if (cls != 0) {
      uint32_t expect = 0;
      if (!cls_word->compare_exchange_strong(expect, cls,
                                             std::memory_order_acq_rel)) {
        cls = expect;
      }
    }
  }
  if ((flags & kFlagTry) == 0) {
    CheckAcquire(n, obj, cls, pc);
  }
  PushHeld(n, obj, cls, flags, pc);
}

void OnSpinRelease(const void* obj) {
  BusyScope busy;
  if (!busy.entered) return;
  PopHeld(CurrentNode(), obj);
}

// ---- Naming / annotation.

void SetName(ObjDebug* d, Kind kind, const char* name) {
  BusyScope busy;
  if (!busy.entered) return;
  uint32_t cls = InternClass(kind, 0, name, 0);
  if (cls != 0) {
    d->class_id.store(cls, std::memory_order_release);
  }
}

void SetOrder(ObjDebug* d, Kind kind, int level, uintptr_t pc) {
  BusyScope busy;
  if (!busy.entered) return;
  if (level < 1) level = 1;
  if (level > 255) level = 255;
  uint32_t cls = ClassOf(d, kind, pc);
  if (cls != 0) {
    g_classes[cls].hier_level.store(static_cast<uint8_t>(level),
                                    std::memory_order_relaxed);
  }
}

// ---- Introspection.

CountersSnapshot Snapshot() {
  CountersSnapshot s;
  s.configured = g_configured.load(std::memory_order_relaxed);
  s.enabled = (internal::g_enabled.load(std::memory_order_relaxed) & 1u) != 0;
  s.classes = g_class_count.load(std::memory_order_acquire) - 1;
  s.checks = g_checks.load(std::memory_order_relaxed);
  s.edges = g_edges.load(std::memory_order_relaxed);
  s.inversions = g_inversions.load(std::memory_order_acquire);
  s.deadlocks = g_deadlocks.load(std::memory_order_acquire);
  s.held_overflows = g_held_overflows.load(std::memory_order_relaxed);
  return s;
}

const char* ClassName(uint32_t cls) {
  if (cls == 0 || cls >= g_class_count.load(std::memory_order_acquire)) {
    return "";
  }
  return g_classes[cls].name;
}

size_t LastReport(char* buf, size_t cap) {
  if (cap == 0) return 0;
  LockReport();
  size_t len = g_report_len.load(std::memory_order_relaxed);
  if (len >= cap) len = cap - 1;
  memcpy(buf, g_report, len);
  buf[len] = '\0';
  UnlockReport();
  return len;
}

size_t FormatThreadNode(const ThreadNode* n, char* buf, size_t cap) {
  if (cap == 0) return 0;
  buf[0] = '\0';
  if (n->depth.load(std::memory_order_acquire) == 0 &&
      n->waiting_on.load(std::memory_order_acquire) == nullptr) {
    return 0;
  }
  return FormatNodeInto(n, buf, cap, 0);
}

// ---- Control.

void Enable(bool panic_on_report) {
  g_configured.store(true, std::memory_order_relaxed);
  internal::g_enabled.store(panic_on_report ? 3u : 1u,
                            std::memory_order_seq_cst);
}

void Disable() { internal::g_enabled.store(0, std::memory_order_seq_cst); }

void ResetForTest() {
  LockGraph();
  for (uint32_t i = 0; i < kMaxClasses; ++i) {
    for (uint32_t w = 0; w < kMaxClasses / 64; ++w) {
      g_edge_bits[i][w].store(0, std::memory_order_relaxed);
    }
  }
  g_edge_count.store(0, std::memory_order_relaxed);
  g_checks.store(0, std::memory_order_relaxed);
  g_edges.store(0, std::memory_order_relaxed);
  g_inversions.store(0, std::memory_order_relaxed);
  g_deadlocks.store(0, std::memory_order_relaxed);
  g_held_overflows.store(0, std::memory_order_relaxed);
  UnlockGraph();
  LockReport();
  g_report[0] = '\0';
  g_report_len.store(0, std::memory_order_relaxed);
  UnlockReport();
}

void ResetAfterFork() {
  g_pid.store(static_cast<uint32_t>(getpid()), std::memory_order_relaxed);
  // A kernel thread that held either lock across the fork does not exist in
  // the child.
  g_graph_lock.store(0, std::memory_order_relaxed);
  g_report_lock.store(0, std::memory_order_relaxed);
}

}  // namespace lockdep
}  // namespace sunmt
