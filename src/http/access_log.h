// Access logging on a dedicated logger thread.
//
// The paper's server sketch (and Pike's threaded HTTPLoop) hands log lines to
// one logging thread over a mailbox so request threads never serialize on the
// log file descriptor. Here the mailbox is a bounded src/msgq MessageQueue:
// connection threads format the line and Send() it; one unbound logger thread
// Recv()s and writes to the sink fd through the io_* wrappers.
//
// Backpressure: a full queue throttles request threads, so every line logged
// before Stop() lands unless the sink fails.

#ifndef SUNMT_SRC_HTTP_ACCESS_LOG_H_
#define SUNMT_SRC_HTTP_ACCESS_LOG_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/core/thread.h"
#include "src/msgq/message_queue.h"

namespace sunmt {

class HttpAccessLog {
 public:
  // Lines are written to `fd` (not owned).
  explicit HttpAccessLog(int fd);
  ~HttpAccessLog();

  HttpAccessLog(const HttpAccessLog&) = delete;
  HttpAccessLog& operator=(const HttpAccessLog&) = delete;

  // Formats and enqueues one line:
  //   conn=<id> "<method> <target>" <status> <bytes>B <duration>us
  void Log(uint64_t conn_id, std::string_view method, std::string_view target,
           int status, size_t response_bytes, int64_t duration_us);

  // Drains the queue, stops the logger thread, joins it. Idempotent; further
  // Log() calls are dropped.
  void Stop();

  uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }
  // Lines lost to a failing sink or logged after Stop().
  uint64_t lines_dropped() const {
    return lines_dropped_.load(std::memory_order_relaxed);
  }

 private:
  static void LoggerMain(void* arg);

  static constexpr uint32_t kMaxLine = 512;
  static constexpr uint32_t kCapacity = 1024;  // mailbox slots

  int fd_;
  std::atomic<bool> stopping_{false};
  // Producers inside Log() past the stopping_ check; Stop() waits for this to
  // reach zero before the sentinel, so a blocking Send() always has a live
  // consumer.
  std::atomic<uint32_t> in_flight_{0};
  char* queue_memory_ = nullptr;
  MessageQueue* queue_ = nullptr;
  thread_id_t logger_ = 0;
  std::atomic<uint64_t> lines_written_{0};
  std::atomic<uint64_t> lines_dropped_{0};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_HTTP_ACCESS_LOG_H_
