// Access logging on the connection threads themselves.
//
// The paper's server is "written in a straightforward fashion": one thread per
// connection, and that thread writes its own access-log line. Log() formats
// the line outside any lock, then writes it to the sink fd through io_write
// under one adaptive mutex, so lines stay whole and each thread's lines stay
// in its own order. A slow sink blocks one LWP in the kernel (the writer's)
// while the other writers wait on the mutex at user level.
//
// Lines logged after Stop() or after a failed write are dropped and counted;
// logging never crashes or wedges the server.

#ifndef SUNMT_SRC_HTTP_ACCESS_LOG_H_
#define SUNMT_SRC_HTTP_ACCESS_LOG_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/sync/sync.h"

namespace sunmt {

class HttpAccessLog {
 public:
  // Lines are written to `fd` (not owned).
  explicit HttpAccessLog(int fd);
  ~HttpAccessLog();

  HttpAccessLog(const HttpAccessLog&) = delete;
  HttpAccessLog& operator=(const HttpAccessLog&) = delete;

  // Formats and writes one line:
  //   conn=<id> "<method> <target>" <status> <bytes>B <duration>us
  void Log(uint64_t conn_id, std::string_view method, std::string_view target,
           int status, size_t response_bytes, int64_t duration_us);

  // Drops every later Log() call. A Log() racing Stop() is either written in
  // full or dropped, and lines_written() is final once Stop() returns.
  // Idempotent.
  void Stop();

  uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }
  // Lines lost to a failing sink or logged after Stop().
  uint64_t lines_dropped() const {
    return lines_dropped_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint32_t kMaxLine = 512;

  int fd_;
  mutex_t lock_;  // serializes the writes and guards the two flags
  bool stopping_ = false;
  bool sink_failed_ = false;
  std::atomic<uint64_t> lines_written_{0};
  std::atomic<uint64_t> lines_dropped_{0};
};

}  // namespace sunmt

#endif  // SUNMT_SRC_HTTP_ACCESS_LOG_H_
