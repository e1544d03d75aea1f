#include "src/http/access_log.h"

#include <stdio.h>
#include <string.h>

#include "src/io/io.h"
#include "src/timer/timer.h"

namespace sunmt {

// The one-byte stop sentinel: real lines always start with 'c' ("conn=").
static constexpr char kStopSentinel = '\0';

HttpAccessLog::HttpAccessLog(int fd) : fd_(fd) {
  size_t footprint = MessageQueue::FootprintBytes(kMaxLine, kCapacity);
  queue_memory_ = new char[footprint]();
  queue_ = MessageQueue::CreateAt(queue_memory_, kMaxLine, kCapacity,
                                  /*sync_type=*/0);
  logger_ = thread_create(nullptr, 0, &LoggerMain, this, THREAD_WAIT);
}

HttpAccessLog::~HttpAccessLog() {
  Stop();
  delete[] queue_memory_;
}

void HttpAccessLog::Log(uint64_t conn_id, std::string_view method,
                        std::string_view target, int status,
                        size_t response_bytes, int64_t duration_us) {
  // Handshake with Stop(): raise in_flight_ before re-checking stopping_
  // (both seq_cst), so either Stop() sees this producer and waits for it to
  // leave Send(), or this producer sees stopping_ and drops. Without it a
  // racing blocking Send() on a full queue could run after the logger thread
  // exited and block forever.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    in_flight_.fetch_sub(1, std::memory_order_release);
    lines_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  char line[kMaxLine];
  int n = snprintf(line, sizeof(line),
                   "conn=%llu \"%.*s %.*s\" %d %zuB %lldus\n",
                   static_cast<unsigned long long>(conn_id),
                   static_cast<int>(method.size()), method.data(),
                   static_cast<int>(target.size()), target.data(), status,
                   response_bytes, static_cast<long long>(duration_us));
  if (n < 0) {
    return;
  }
  size_t len = static_cast<size_t>(n) < sizeof(line) ? static_cast<size_t>(n)
                                                     : sizeof(line) - 1;
  queue_->Send(line, len);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void HttpAccessLog::Stop() {
  if (stopping_.exchange(true, std::memory_order_seq_cst)) {
    return;
  }
  if (logger_ != 0) {
    // Quiesce racing producers first: anyone already past the stopping_ check
    // is counted in in_flight_ and the logger is still consuming, so their
    // Send() completes; later callers see stopping_ and drop.
    while (in_flight_.load(std::memory_order_acquire) > 0) {
      thread_sleep_ms(1);
    }
    // The sentinel is queued behind every line already sent, so the logger
    // drains the backlog before exiting.
    queue_->Send(&kStopSentinel, 1);
    thread_wait(logger_);
    logger_ = 0;
  }
}

void HttpAccessLog::LoggerMain(void* arg) {
  auto* log = static_cast<HttpAccessLog*>(arg);
  char line[kMaxLine];
  bool sink_ok = true;  // on sink failure keep draining so Stop() never hangs
  for (;;) {
    // Recv returns bytes *copied* (never more than sizeof(line)) — the line
    // below may be a truncated prefix if a producer somehow oversized, but it
    // can never make us read past what Recv wrote.
    size_t len = log->queue_->Recv(line, sizeof(line));
    if (len == 1 && line[0] == kStopSentinel) {
      return;
    }
    size_t off = 0;
    while (sink_ok && off < len) {
      ssize_t w = io_write(log->fd_, line + off, len - off);
      if (w <= 0) {
        sink_ok = false;  // logging must not crash or wedge the server
        break;
      }
      off += static_cast<size_t>(w);
    }
    if (sink_ok) {
      log->lines_written_.fetch_add(1, std::memory_order_relaxed);
    } else {
      log->lines_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace sunmt
