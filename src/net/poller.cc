#include "src/net/poller.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include "src/core/runtime.h"
#include "src/core/scheduler.h"
#include "src/core/trace.h"
#include "src/inject/inject.h"
#include "src/net/net.h"
#include "src/stats/stats.h"
#include "src/sync/timed_wait.h"
#include "src/sync/waitq.h"
#include "src/util/check.h"

namespace sunmt {
namespace {

// epoll_wait batch size for one drain.
constexpr int kEventBatch = 128;

std::atomic<NetPoller*> g_poller{nullptr};
SpinLock g_poller_create_lock;

// net_poller_stop(): parked waiters fail with ECANCELED. Process-global so the
// fork1() repair can reset it without touching a half-built singleton.
std::atomic<bool> g_stopped{false};

// Wake reasons delivered through Tcb::park_result.
enum : uint8_t {
  kWakeReady = 0,
  kWakeCancelled = 1,
};

// Wakes a thread parked in WaitReady, whoever dequeued it (readiness, a
// cancel sweep or its deadline), and counts the wake beside the parks.
void WakeFdWaiter(Tcb* tcb) {
  GlobalSchedStats().net_wakes.Inc();
  sched::Wake(tcb);
}

// Deadline support, same shape as cv_timedwait (timed_wait.h): whichever of
// readiness and the timer dequeues the waiter first wins.
using NetTimedWait = TimedWait<&WakeFdWaiter>;

}  // namespace

// The parked waiters do not exist in the child; abandon the parent's poller so
// the child lazily builds a fresh one. The inherited epoll fd leaks, which is
// the safe direction.
void NetPoller::ResetAfterFork() {
  g_poller.store(nullptr, std::memory_order_release);
  g_stopped.store(false, std::memory_order_release);
  g_poller_create_lock.Reset();
}

NetPoller& NetPoller::Get() {
  NetPoller* poller = g_poller.load(std::memory_order_acquire);
  if (poller != nullptr) {
    return *poller;
  }
  SpinLockGuard guard(g_poller_create_lock);
  poller = g_poller.load(std::memory_order_acquire);
  if (poller == nullptr) {
    poller = new NetPoller();  // leaked: parked threads reference it forever
    g_poller.store(poller, std::memory_order_release);
  }
  return *poller;
}

bool NetPoller::Exists() {
  return g_poller.load(std::memory_order_acquire) != nullptr;
}

NetPoller::NetPoller() {
  // Not `new ...[kMaxFds]()`: value-initializing would touch every page. A
  // zero-filled mapping is already an array of null atomic pointers.
  size_t table_bytes = kMaxFds * sizeof(std::atomic<FdEntry*>);
  void* table = mmap(nullptr, table_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  SUNMT_CHECK(table != MAP_FAILED);
#if defined(__SANITIZE_ADDRESS__)
  // The entries are reachable only through this mapping, which the leak
  // checker does not scan unless told to.
  __lsan_register_root_region(table, table_bytes);
#endif
  table_ = static_cast<std::atomic<FdEntry*>*>(table);
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  SUNMT_CHECK(epfd_ >= 0);
  wakeup_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  SUNMT_CHECK(wakeup_fd_ >= 0);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  SUNMT_CHECK(epoll_ctl(epfd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) == 0);
}

NetPoller::FdEntry* NetPoller::GetEntry(int fd) const {
  if (fd < 0 || fd >= kMaxFds) {
    return nullptr;
  }
  return table_[fd].load(std::memory_order_acquire);
}

NetPoller::FdEntry* NetPoller::GetOrCreateEntry(int fd) {
  FdEntry* entry = table_[fd].load(std::memory_order_acquire);
  if (entry != nullptr) {
    return entry;
  }
  auto* fresh = new FdEntry();
  FdEntry* expected = nullptr;
  if (table_[fd].compare_exchange_strong(expected, fresh,
                                         std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return expected;
}

// ---- Registration -----------------------------------------------------------

int NetPoller::Register(int fd) {
  if (fd < 0 || fd >= kMaxFds) {
    errno = EBADF;
    return -1;
  }
  int flags = fcntl(fd, F_GETFL);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return -1;
  }
  FdEntry* entry = GetOrCreateEntry(fd);
  SpinLockGuard guard(entry->lock);
  if (entry->registered) {
    return 0;  // idempotent
  }
  struct epoll_event ev = {};
  // Edge-triggered on both directions for the fd's lifetime: re-arming per
  // wait would cost an epoll_ctl system call per park. The sticky `ready`
  // bits plus consumer retry loops absorb the edge semantics.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.fd = fd;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return -1;  // e.g. EPERM: regular files are not pollable
  }
  entry->registered = true;
  // A just-registered fd may already be readable/writable; with EPOLLET that
  // edge may never fire again, so start pessimistically ready and let the
  // first EAGAIN clear the bits.
  entry->ready = NET_READABLE | NET_WRITABLE;
  registered_count_.fetch_add(1, std::memory_order_relaxed);
  if (fd >= fd_highwater_.load(std::memory_order_relaxed)) {
    fd_highwater_.store(fd + 1, std::memory_order_relaxed);
  }
  return 0;
}

int NetPoller::Unregister(int fd) {
  FdEntry* entry = GetEntry(fd);
  if (entry == nullptr) {
    errno = EBADF;
    return -1;
  }
  Tcb* wake_head = nullptr;
  Tcb* wake_tail = nullptr;
  {
    SpinLockGuard guard(entry->lock);
    if (!entry->registered) {
      errno = EBADF;
      return -1;
    }
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    entry->registered = false;
    entry->ready = 0;
    registered_count_.fetch_sub(1, std::memory_order_relaxed);
    CancelWaitersLocked(entry, &wake_head, &wake_tail);
  }
  WakeChain(wake_head);
  return 0;
}

bool NetPoller::IsRegistered(int fd) const {
  FdEntry* entry = GetEntry(fd);
  if (entry == nullptr) {
    return false;
  }
  SpinLockGuard guard(entry->lock);
  return entry->registered;
}

// ---- Waiter bookkeeping -----------------------------------------------------

// Pops every waiter from `q` onto the wake chain. Entry lock held.
void NetPoller::DrainQueueLocked(WaitQueue* q, Tcb** wake_head, Tcb** wake_tail,
                                 uint8_t result) {
  while (q->head != nullptr) {
    Tcb* tcb = WaitqPop(&q->head, &q->tail);
    tcb->park_result = result;
    WaitqPush(wake_head, wake_tail, tcb);
  }
}

void NetPoller::CancelWaitersLocked(FdEntry* entry, Tcb** wake_head,
                                    Tcb** wake_tail) {
  DrainQueueLocked(&entry->readers, wake_head, wake_tail, kWakeCancelled);
  DrainQueueLocked(&entry->writers, wake_head, wake_tail, kWakeCancelled);
}

// Wakes a chain built by DrainQueueLocked, outside any entry lock. Must
// capture wait_next before Wake: a woken thread may immediately re-park and
// reuse the link.
void NetPoller::WakeChain(Tcb* head) {
  while (head != nullptr) {
    Tcb* next = head->wait_next;
    head->wait_next = nullptr;
    WakeFdWaiter(head);
    head = next;
  }
}

// ---- Event dispatch ---------------------------------------------------------

void NetPoller::DispatchEvent(int fd, uint32_t epoll_events, Tcb** wake_head,
                              Tcb** wake_tail) {
  FdEntry* entry = GetEntry(fd);
  if (entry == nullptr) {
    return;
  }
  uint32_t ready = 0;
  // Errors and hangups make both directions "ready": the retried syscall is
  // what reports the actual condition (EOF, ECONNRESET, EPIPE, ...).
  if ((epoll_events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    ready |= NET_READABLE;
  }
  if ((epoll_events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
    ready |= NET_WRITABLE;
  }
  if (ready == 0) {
    return;
  }
  SpinLockGuard guard(entry->lock);
  entry->ready |= ready;
  if ((ready & NET_READABLE) != 0) {
    DrainQueueLocked(&entry->readers, wake_head, wake_tail, kWakeReady);
  }
  if ((ready & NET_WRITABLE) != 0) {
    DrainQueueLocked(&entry->writers, wake_head, wake_tail, kWakeReady);
  }
}

int NetPoller::Poll(int timeout_ms) {
  struct epoll_event events[kEventBatch];
  int n;
  do {
    n = epoll_wait(epfd_, events, kEventBatch, timeout_ms);
  } while (n < 0 && errno == EINTR && timeout_ms == 0);
  if (n < 0) {
    return errno == EINTR ? 0 : -1;
  }
  if (n > 0 && Stats::Enabled()) {
    Stats::RecordValue(LatencyStat::kNetEpollBatch, static_cast<uint64_t>(n));
  }
  Tcb* wake_head = nullptr;
  Tcb* wake_tail = nullptr;
  int woken = 0;
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == wakeup_fd_) {
      // Only the blocking poll drains a kick (the eventfd is level-triggered):
      // a timeout-0 poll racing with a fresh owner must not swallow its kick.
      if (timeout_ms != 0) {
        uint64_t token;
        while (read(wakeup_fd_, &token, sizeof(token)) > 0) {
        }
      }
      continue;
    }
    DispatchEvent(fd, events[i].events, &wake_head, &wake_tail);
  }
  for (Tcb* t = wake_head; t != nullptr; t = t->wait_next) {
    ++woken;
  }
  WakeChain(wake_head);
  return woken;
}

void NetPoller::Kick() {
  uint64_t one = 1;
  (void)!write(wakeup_fd_, &one, sizeof(one));
}

// ---- Parking ----------------------------------------------------------------

int NetPoller::WaitReady(int fd, uint32_t events, int64_t timeout_ns) {
  SUNMT_DCHECK(events == NET_READABLE || events == NET_WRITABLE);
  // Schedule perturbation only: a *spurious* ready here would be illegal for
  // net_connect (it reads SO_ERROR on 0), so the fault variant lives in
  // net.cc's read/write/writev/accept retry loop instead.
  inject::Perturb(inject::kNetWaitReady);
  FdEntry* entry = GetEntry(fd);
  if (entry == nullptr) {
    return EBADF;
  }
  Tcb* self = sched::CurrentTcbOrAdopt();
  int64_t wait_start = SyncWaitStartNs();
  entry->lock.Lock();
  if (!entry->registered) {
    entry->lock.Unlock();
    return EBADF;
  }
  if (g_stopped.load(std::memory_order_acquire)) {
    entry->lock.Unlock();
    return ECANCELED;
  }
  if ((entry->ready & events) != 0) {
    // A readiness edge arrived since the caller's last EAGAIN: consume the
    // latch and let the caller retry the syscall instead of parking.
    entry->ready &= ~events;
    entry->lock.Unlock();
    return 0;
  }
  if (timeout_ns == 0) {
    entry->lock.Unlock();
    return ETIME;
  }
  WaitQueue& q = events == NET_WRITABLE ? entry->writers : entry->readers;
  WaitqPush(&q.head, &q.tail, self);  // advances block_generation
  // seq_cst: pairs with Runtime::EnterIdle, which reads it to decide whether
  // an idle LWP takes the poll.
  parked_count_.fetch_add(1, std::memory_order_seq_cst);
  NetTimedWait deadline;
  deadline.Arm(&entry->lock, &q.head, &q.tail, self, timeout_ns);
  if (self->IsBound()) {
    Runtime::Get().HandOffPoll();
  }
  GlobalSchedStats().net_parks.Inc();
  Trace::Record(TraceEvent::kNetPark, self->id, static_cast<uint64_t>(fd));
  sched::Block(&entry->lock);  // the waker sets park_result before the wake
  parked_count_.fetch_sub(1, std::memory_order_release);
  SyncWaitEndNs(LatencyStat::kNetReadinessWait, TraceEvent::kNetWake, self->id,
                wait_start);
  if (deadline.Finish()) {
    return ETIME;
  }
  return self->park_result == kWakeCancelled ? ECANCELED : 0;
}

// ---- Lifecycle --------------------------------------------------------------

int NetPoller::Start() {
  g_stopped.store(false, std::memory_order_release);
  return 0;
}

int NetPoller::Stop() {
  g_stopped.store(true, std::memory_order_release);
  // Wake everyone still parked; their WaitReady returns ECANCELED.
  int highwater = fd_highwater_.load(std::memory_order_acquire);
  for (int fd = 0; fd < highwater; ++fd) {
    FdEntry* entry = table_[fd].load(std::memory_order_acquire);
    if (entry == nullptr) {
      continue;
    }
    Tcb* wake_head = nullptr;
    Tcb* wake_tail = nullptr;
    {
      SpinLockGuard entry_guard(entry->lock);
      CancelWaitersLocked(entry, &wake_head, &wake_tail);
    }
    WakeChain(wake_head);
  }
  return 0;
}

bool NetPoller::Running() const {
  return !g_stopped.load(std::memory_order_acquire);
}

}  // namespace sunmt
