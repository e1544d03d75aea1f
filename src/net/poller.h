// The NetPoller: one epoll(7) instance, a per-fd registration table mapping
// readiness to parked TCBs, and the poll/dispatch step that the LWP pool runs
// (src/core's poll-owner protocol: Runtime::EnterIdle and PollIfUnowned).
//
// Internal to src/net; applications use net.h.

#ifndef SUNMT_SRC_NET_POLLER_H_
#define SUNMT_SRC_NET_POLLER_H_

#include <atomic>
#include <cstdint>

#include "src/core/tcb.h"
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

  // True if Get() has ever run — lets cold paths (io routing, the pool's
  // poll checks) skip without instantiating the poller.
  static bool Exists();

  // fork1() child repair (Runtime::ResetAfterFork): drops the parent's poller.
  static void ResetAfterFork();

  // ---- Lifecycle ------------------------------------------------------------
  // Resumes readiness delivery after Stop(); starts no thread. Idempotent.
  int Start();
  // Wakes every parked waiter with ECANCELED and suspends readiness delivery
  // (new waits fail with ECANCELED) until Start().
  int Stop();
  // Events are being delivered: not stopped.
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

  // Threads currently parked on readiness, stopped or not (introspection;
  // the pool's "poll needed" test is net_parked_count()).
  int ParkedCount() const { return parked_count_.load(std::memory_order_seq_cst); }

  // Fds currently registered (introspection via net_backend_snapshot).
  int RegisteredCount() const {
    return registered_count_.load(std::memory_order_relaxed);
  }

  // ---- Polling (by pool LWPs and the watchdog, see Runtime::EnterIdle) ------
  // One epoll_wait with `timeout_ms` (-1 blocks: the poll owner only) and the
  // wakes it delivers. Returns the number of threads woken, or -1 on an
  // epoll_wait error other than EINTR.
  int Poll(int timeout_ms);

  // Makes a blocking Poll return, via the wakeup eventfd.
  void Kick();

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

  int epfd_ = -1;
  int wakeup_fd_ = -1;

  // fd -> entry, lock-free for readers. Sized for RLIMIT_NOFILE-scale servers;
  // fds beyond the table fall back to the blocking path (Register fails). The
  // 512 KiB table is an anonymous mapping: its pages start zero and become
  // resident only where fds are used.
  static constexpr int kMaxFds = 65536;
  std::atomic<FdEntry*>* table_;
  std::atomic<int> fd_highwater_{0};  // one past the largest fd ever registered

  std::atomic<int> registered_count_{0};
  std::atomic<int> parked_count_{0};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_NET_POLLER_H_
