// Monitor<T>: a value that can only be touched under its mutex.
//
// The paper's condvar usage pattern ("mutex_enter; while (cond) cv_wait; ...
// mutex_exit") packaged as a type: the data, the lock, and the condition
// variable travel together, and the compiler enforces the bracket.

#ifndef SUNMT_SRC_CXX_MONITOR_H_
#define SUNMT_SRC_CXX_MONITOR_H_

#include <utility>

#include "src/cxx/guards.h"
#include "src/sync/sync.h"
#include "src/util/clock.h"

namespace sunmt {

template <typename T>
class Monitor {
 public:
  Monitor() = default;
  explicit Monitor(T initial) : value_(std::move(initial)) {}
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Runs fn(T&) under the lock; returns fn's result.
  template <typename Fn>
  auto With(Fn&& fn) {
    MutexGuard guard(mu_);
    return fn(value_);
  }

  // Runs fn(T&) under the lock and signals one waiter afterwards.
  template <typename Fn>
  auto WithSignal(Fn&& fn) {
    MutexGuard guard(mu_);
    auto cleanup = [this] { cv_signal(&cv_); };
    struct Signaler {
      decltype(cleanup)& fire;
      ~Signaler() { fire(); }
    } signaler{cleanup};
    return fn(value_);
  }

  // Runs fn(T&) under the lock and broadcasts afterwards.
  template <typename Fn>
  auto WithBroadcast(Fn&& fn) {
    MutexGuard guard(mu_);
    auto cleanup = [this] { cv_broadcast(&cv_); };
    struct Broadcaster {
      decltype(cleanup)& fire;
      ~Broadcaster() { fire(); }
    } broadcaster{cleanup};
    return fn(value_);
  }

  // Blocks until pred(T&) holds, then runs fn(T&), all under the lock.
  template <typename Pred, typename Fn>
  auto When(Pred&& pred, Fn&& fn) {
    MutexGuard guard(mu_);
    while (!pred(value_)) {
      cv_wait(&cv_, &mu_);
    }
    return fn(value_);
  }

  // Like When() but gives up after timeout_ns; returns false on timeout.
  template <typename Pred, typename Fn>
  bool WhenFor(int64_t timeout_ns, Pred&& pred, Fn&& fn) {
    MutexGuard guard(mu_);
    int64_t deadline = MonotonicNowNs() + timeout_ns;
    while (!pred(value_)) {
      int64_t remaining = deadline - MonotonicNowNs();
      if (remaining <= 0) {
        return false;
      }
      cv_timedwait(&cv_, &mu_, remaining);
    }
    fn(value_);
    return true;
  }

 private:
  mutex_t mu_ = {};
  condvar_t cv_ = {};
  T value_{};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_CXX_MONITOR_H_
