#include "src/http/access_log.h"

#include <stdio.h>

#include "src/io/io.h"

namespace sunmt {

HttpAccessLog::HttpAccessLog(int fd) : fd_(fd) {
  mutex_init(&lock_, 0, nullptr);
  mutex_set_name(&lock_, "http.access_log");
}

HttpAccessLog::~HttpAccessLog() = default;

void HttpAccessLog::Log(uint64_t conn_id, std::string_view method,
                        std::string_view target, int status,
                        size_t response_bytes, int64_t duration_us) {
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
  mutex_enter(&lock_);
  bool ok = !stopping_ && !sink_failed_;
  for (size_t off = 0; ok && off < len;) {
    ssize_t w = io_write(fd_, line + off, len - off);
    if (w <= 0) {
      sink_failed_ = true;  // logging must not crash or wedge the server
      ok = false;
    } else {
      off += static_cast<size_t>(w);
    }
  }
  (ok ? lines_written_ : lines_dropped_).fetch_add(1, std::memory_order_relaxed);
  mutex_exit(&lock_);
}

void HttpAccessLog::Stop() {
  mutex_enter(&lock_);
  stopping_ = true;
  mutex_exit(&lock_);
}

}  // namespace sunmt
