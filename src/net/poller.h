// The NetPoller: one epoll(7) instance, a per-fd registration table mapping
// readiness to parked TCBs, and the dispatch machinery shared by the dedicated
// bound-LWP loop and the inline (scheduler idle path) fallback.
//
// Internal to src/net; applications use net.h.

#ifndef SUNMT_SRC_NET_POLLER_H_
#define SUNMT_SRC_NET_POLLER_H_

#include <atomic>
#include <cstdint>

#include "src/core/tcb.h"
#include "src/core/thread.h"
#include "src/util/spinlock.h"

namespace sunmt {

class NetPoller {
 public:
  // Per-direction wait queue: a Tcb chain (wait_next links), FIFO.
  struct WaitQueue {
    Tcb* head = nullptr;
    Tcb* tail = nullptr;
  };

  // One registered fd. Entries are allocated on first registration of an fd
  // number and reused for the process lifetime (an unregistered entry is
  // inactive, never freed: the deadline fire path may still hold the pointer).
  struct FdEntry {
    SpinLock lock;
    bool registered = false;
    // Sticky readiness (NET_READABLE|NET_WRITABLE), latched by the poller on
    // edge-triggered events and cleared by the consumer that observes it —
    // closes the EAGAIN -> park window against a concurrent edge.
    uint32_t ready = 0;
    WaitQueue readers;
    WaitQueue writers;
  };

  // Process singleton, created lazily (and leaked, like the Runtime: parked
  // threads may reference it for the process lifetime).
  static NetPoller& Get();

  // True if Get() has ever run — lets cold paths (io routing, fork repair)
  // skip without instantiating the poller.
  static bool Exists();

  // ---- Lifecycle ------------------------------------------------------------
  // Launches the dedicated bound poller thread. Idempotent. -1 on failure.
  int StartDedicated();
  // Stops the dedicated thread (if any), wakes every parked waiter with
  // ECANCELED, and suspends readiness delivery until restarted.
  int Stop();
  // Events are being delivered: dedicated loop running, or inline fallback
  // armed by at least one registration.
  bool Running() const;

  // ---- Registration ---------------------------------------------------------
  int Register(int fd);
  int Unregister(int fd);
  bool IsRegistered(int fd) const;

  // ---- Parking --------------------------------------------------------------
  // Parks the calling thread until `events` (NET_READABLE or NET_WRITABLE,
  // exactly one bit) fire on `fd`. Returns 0 (ready), ETIME (deadline),
  // ECANCELED (poller stopped or fd unregistered mid-wait), or EBADF (fd never
  // registered). timeout_ns < 0 waits forever; 0 returns without parking.
  int WaitReady(int fd, uint32_t events, int64_t timeout_ns);

  // Threads currently parked on readiness (tests/introspection).
  int ParkedCount() const { return parked_count_.load(std::memory_order_relaxed); }

  // Fds currently registered (introspection via net_backend_snapshot).
  int RegisteredCount() const {
    return registered_count_.load(std::memory_order_relaxed);
  }

  // ---- Inline fallback ------------------------------------------------------
  // One nonblocking epoll_wait + dispatch, used by the scheduler's idle path
  // and the anti-starvation timer tick when no dedicated LWP is configured.
  // Returns the number of threads woken (0 also when another caller holds the
  // inline-poll claim), or -1 if inline polling is not needed at all
  // (dedicated loop running, or nobody parked) and deep-parking the LWP is fine.
  int PollInline();

  // Scheduler idle-path adapter: PollInline() on the singleton, -1 if it was
  // never created. Installed via sched::SetIdlePollHook.
  static int IdlePollHook();

 private:
  NetPoller();

  FdEntry* GetEntry(int fd) const;
  FdEntry* GetOrCreateEntry(int fd);

  // Waiter bookkeeping; entry lock held for the *Locked forms. Woken TCBs are
  // collected onto a wake chain and woken by WakeChain outside the lock.
  static void DrainQueueLocked(WaitQueue* q, Tcb** wake_head, Tcb** wake_tail,
                               uint8_t result);
  static void CancelWaitersLocked(FdEntry* entry, Tcb** wake_head, Tcb** wake_tail);
  static void WakeChain(Tcb* head);

  // Applies one epoll event: latches readiness, collects waiters.
  void DispatchEvent(int fd, uint32_t epoll_events, Tcb** wake_head, Tcb** wake_tail);

  // Drains the epoll instance once with `timeout_ms`; wakes waiters. Returns
  // the number of threads woken, or -1 on epoll_wait error (EINTR excluded).
  int PollOnce(int timeout_ms);

  // Kicks a blocking epoll_wait (dedicated loop) via the wakeup eventfd.
  void Kick();

  static void DedicatedLoop(void* arg);
  static void InlineTick(void* cookie, uint64_t arg);
  void ArmInlineTick();

  int epfd_ = -1;
  int wakeup_fd_ = -1;

  // fd -> entry, lock-free for readers. Sized for RLIMIT_NOFILE-scale servers;
  // fds beyond the table fall back to the blocking path (Register fails).
  static constexpr int kMaxFds = 65536;
  std::atomic<FdEntry*>* table_;
  std::atomic<int> fd_highwater_{0};  // one past the largest fd ever registered

  mutable SpinLock lifecycle_lock_;
  std::atomic<bool> dedicated_running_{false};
  std::atomic<bool> stopping_{false};
  thread_id_t dedicated_thread_ = 0;

  std::atomic<int> registered_count_{0};
  std::atomic<int> parked_count_{0};
  std::atomic<bool> inline_tick_armed_{false};
  std::atomic<uint64_t> inline_tick_timer_{0};  // periodic backstop timer id
  std::atomic<uint32_t> inline_poll_busy_{0};  // single inline poller at a time
};

}  // namespace sunmt

#endif  // SUNMT_SRC_NET_POLLER_H_
