// HTTP subsystem tests: parser robustness (malformed lines/headers, split
// reads, pipelining, chunked framing), the response writers, the sharded
// cache, the access log, and the server end to end over real loopback
// sockets — keep-alive, pipelined responses in order, idle-timeout close,
// 408 for stalled requests, chunked round-trip, cache hits, Stop() waking
// parked connections — plus the pre-fork shared-statistics stretch (fork1 +
// THREAD_SYNC_SHARED, skipped under TSan like every fork test) and an
// injection shakedown sweep over the whole request path.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/thread.h"
#include "src/http/server.h"
#include "src/inject/inject.h"
#include "src/io/io.h"
#include "src/ipc/fork1.h"
#include "src/ipc/shared_arena.h"
#include "src/net/net.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace sunmt {
namespace {

using sunmt_test::Join;
using sunmt_test::Spawn;

constexpr int64_t kMs = 1000 * 1000;

// ---- Parser helpers ---------------------------------------------------------

HttpParser::Result ParseAll(const std::string& input, HttpMessage* out,
                            HttpParser::Role role = HttpParser::kRequest,
                            HttpParser::Limits limits = {},
                            int* error_status = nullptr) {
  HttpParser parser(role, limits);
  parser.Feed(input.data(), input.size());
  HttpParser::Result r = parser.Next(out);
  if (error_status != nullptr) {
    *error_status = parser.error_status();
  }
  return r;
}

TEST(HttpParser, SimpleRequestAndDefaults) {
  HttpMessage msg;
  ASSERT_EQ(ParseAll("GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n", &msg),
            HttpParser::kMessage);
  EXPECT_EQ(msg.method, "GET");
  EXPECT_EQ(msg.target, "/index.html");
  EXPECT_EQ(msg.version_major, 1);
  EXPECT_EQ(msg.version_minor, 1);
  EXPECT_TRUE(msg.keep_alive);  // 1.1 default
  EXPECT_TRUE(msg.body.empty());
  const std::string* host = msg.FindHeader("hOsT");  // case-insensitive
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(*host, "a");

  ASSERT_EQ(ParseAll("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &msg),
            HttpParser::kMessage);
  EXPECT_FALSE(msg.keep_alive);
  ASSERT_EQ(ParseAll("GET / HTTP/1.0\r\n\r\n", &msg), HttpParser::kMessage);
  EXPECT_FALSE(msg.keep_alive);  // 1.0 default
  ASSERT_EQ(ParseAll("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", &msg),
            HttpParser::kMessage);
  EXPECT_TRUE(msg.keep_alive);
}

// A request split into 1-byte reads must parse identically to one big read.
TEST(HttpParser, ByteByByteSplitReads) {
  const std::string input =
      "POST /submit HTTP/1.1\r\nHost: b\r\nContent-Length: 11\r\n\r\n"
      "hello world";
  HttpParser parser(HttpParser::kRequest);
  HttpMessage msg;
  for (size_t i = 0; i < input.size(); ++i) {
    if (i + 1 < input.size()) {
      // Until the last byte lands there must be no message (and no error).
      ASSERT_EQ(parser.Next(&msg), HttpParser::kNeedMore) << "at byte " << i;
    }
    parser.Feed(&input[i], 1);
  }
  ASSERT_EQ(parser.Next(&msg), HttpParser::kMessage);
  EXPECT_EQ(msg.method, "POST");
  EXPECT_EQ(msg.body, "hello world");
  EXPECT_EQ(msg.content_length, 11);
  EXPECT_FALSE(parser.mid_message());
}

TEST(HttpParser, PipelinedRequestsComeOutOneAtATime) {
  HttpParser parser(HttpParser::kRequest);
  const std::string two =
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n";
  parser.Feed(two.data(), two.size());
  HttpMessage msg;
  ASSERT_EQ(parser.Next(&msg), HttpParser::kMessage);
  EXPECT_EQ(msg.target, "/a");
  EXPECT_TRUE(parser.mid_message());  // the second request is buffered
  ASSERT_EQ(parser.Next(&msg), HttpParser::kMessage);
  EXPECT_EQ(msg.target, "/b");
  EXPECT_EQ(parser.Next(&msg), HttpParser::kNeedMore);
}

TEST(HttpParser, MalformedRequestLines) {
  struct Case {
    const char* input;
    int status;
  };
  const Case cases[] = {
      {"GET /\r\n\r\n", 400},                        // missing version
      {"GET  / HTTP/1.1\r\n\r\n", 400},              // double space
      {"GET / HTTP/1.1 extra\r\n\r\n", 400},         // trailing junk
      {"G<T / HTTP/1.1\r\n\r\n", 400},               // bad method token
      {"GET /bad\ttarget HTTP/1.1\r\n\r\n", 400},    // ctl in target
      {"GET / HTTP/2.0\r\n\r\n", 505},               // wrong major version
      {"GET / HTTP/1.x\r\n\r\n", 400},               // malformed version
  };
  for (const Case& c : cases) {
    HttpMessage msg;
    int status = 0;
    EXPECT_EQ(ParseAll(c.input, &msg, HttpParser::kRequest, {}, &status),
              HttpParser::kError)
        << c.input;
    EXPECT_EQ(status, c.status) << c.input;
  }
  // Over-long request line: 414, request-specific.
  HttpParser::Limits tight;
  tight.max_start_line = 32;
  HttpMessage msg;
  int status = 0;
  std::string long_line = "GET /" + std::string(64, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(ParseAll(long_line, &msg, HttpParser::kRequest, tight, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 414);
}

TEST(HttpParser, MalformedHeaders) {
  struct Case {
    const char* input;
    int status;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", 400},  // space before colon
      {"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", 400},  // obs-fold
      {"GET / HTTP/1.1\r\nA: bad\x01value\r\n\r\n", 400},  // ctl in value
      {"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
       400},
      {"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
  };
  for (const Case& c : cases) {
    HttpMessage msg;
    int status = 0;
    EXPECT_EQ(ParseAll(c.input, &msg, HttpParser::kRequest, {}, &status),
              HttpParser::kError)
        << c.input;
    EXPECT_EQ(status, c.status) << c.input;
  }
  // Header-count and header-byte budgets: 431.
  HttpParser::Limits tight;
  tight.max_headers = 2;
  HttpMessage msg;
  int status = 0;
  EXPECT_EQ(ParseAll("GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n", &msg,
                     HttpParser::kRequest, tight, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 431);
  HttpParser::Limits tiny;
  tiny.max_header_bytes = 16;
  EXPECT_EQ(ParseAll("GET / HTTP/1.1\r\nLong-Header-Name: with a value\r\n\r\n",
                     &msg, HttpParser::kRequest, tiny, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 431);
  // Body over budget: 413.
  HttpParser::Limits small_body;
  small_body.max_body_bytes = 4;
  EXPECT_EQ(ParseAll("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789",
                     &msg, HttpParser::kRequest, small_body, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 413);
}

TEST(HttpParser, ChunkedBodyRoundTrip) {
  HttpMessage msg;
  // Sizes in hex, a chunk extension to ignore, and a trailer header.
  ASSERT_EQ(ParseAll("POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\n"
                     "X-Trailer: t\r\n\r\n",
                     &msg),
            HttpParser::kMessage);
  EXPECT_TRUE(msg.chunked);
  EXPECT_EQ(msg.body, "Wikipedia");
  const std::string* trailer = msg.FindHeader("X-Trailer");
  ASSERT_NE(trailer, nullptr);
  EXPECT_EQ(*trailer, "t");

  int status = 0;
  EXPECT_EQ(ParseAll("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "zz\r\nboom\r\n0\r\n\r\n",
                     &msg, HttpParser::kRequest, {}, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 400);  // bad chunk-size hex
  HttpParser::Limits small;
  small.max_body_bytes = 6;
  EXPECT_EQ(ParseAll("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "8\r\n01234567\r\n0\r\n\r\n",
                     &msg, HttpParser::kRequest, small, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 413);
  // A 16-hex-digit chunk size after a nonempty body made the old
  // `body.size() + size` cap check wrap around uint64 and pass; it must 413
  // even under the default (large) body limit.
  EXPECT_EQ(ParseAll("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "4\r\nWiki\r\nffffffffffffffff\r\n",
                     &msg, HttpParser::kRequest, {}, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 413);
}

TEST(HttpParser, RejectsTransferEncodingWithContentLength) {
  // Both framings on one request is a smuggling indicator (RFC 7230 §3.3.3):
  // refuse instead of letting Transfer-Encoding win silently.
  HttpMessage msg;
  int status = 0;
  EXPECT_EQ(ParseAll("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                     "Content-Length: 4\r\n\r\n4\r\nWiki\r\n0\r\n\r\n",
                     &msg, HttpParser::kRequest, {}, &status),
            HttpParser::kError);
  EXPECT_EQ(status, 400);
}

TEST(HttpParser, ResponseBodiesFramedByClose) {
  HttpParser parser(HttpParser::kResponse);
  const std::string input = "HTTP/1.0 200 OK\r\n\r\nuntil-close body";
  parser.Feed(input.data(), input.size());
  HttpMessage msg;
  EXPECT_EQ(parser.Next(&msg), HttpParser::kNeedMore);  // still streaming
  ASSERT_EQ(parser.Finish(&msg), HttpParser::kMessage); // EOF ends the body
  EXPECT_EQ(msg.status, 200);
  EXPECT_EQ(msg.body, "until-close body");
}

// ---- Response formatting ----------------------------------------------------

TEST(HttpResponse, HeadFormatsFramingAndConnection) {
  HttpResponseHead head;
  head.status = 200;
  head.content_type = "text/plain";
  head.extra_headers.push_back({"X-Custom", "7"});
  std::string out;
  HttpFormatHead(head, 5, /*keep_alive=*/true, &out);
  EXPECT_NE(out.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(out.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(out.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(out.find("X-Custom: 7\r\n"), std::string::npos);
  EXPECT_NE(out.find("Connection: keep-alive\r\n\r\n"), std::string::npos);
  HttpFormatHead(head, -1, /*keep_alive=*/false, &out);
  EXPECT_NE(out.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_EQ(out.find("Content-Length"), std::string::npos);
  EXPECT_NE(out.find("Connection: close\r\n\r\n"), std::string::npos);
}

// ---- Cache ------------------------------------------------------------------

TEST(HttpCache, HitMissEvictRemove) {
  HttpCache cache(/*shards=*/1, /*max_bytes=*/64);  // tiny: force eviction
  EXPECT_EQ(cache.Lookup("/a"), nullptr);
  cache.Insert("/a", {200, "t/p", {}, "0123456789"});          // 12 bytes
  auto hit = cache.Lookup("/a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body, "0123456789");
  cache.Insert("/b", {200, "t/p", {}, "0123456789"});
  cache.Insert("/c", {200, "t/p", {}, std::string(40, 'x')});  // overflows: /a goes
  EXPECT_EQ(cache.Lookup("/a"), nullptr);                      // FIFO victim
  EXPECT_NE(cache.Lookup("/c"), nullptr);
  HttpCache::Stats stats = cache.SnapshotStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_TRUE(cache.Remove("/c"));
  EXPECT_FALSE(cache.Remove("/c"));
  EXPECT_EQ(cache.Lookup("/c"), nullptr);
  // An entry larger than the whole shard budget is not cached at all.
  cache.Insert("/huge", {200, "t/p", {}, std::string(1024, 'x')});
  EXPECT_EQ(cache.Lookup("/huge"), nullptr);
}

// Eviction hands the body buffers of entries nobody holds to later inserts.
// An entry still held from Lookup (a responder mid-send) keeps its bytes, and
// `bytes` counts exactly the live entries throughout.
TEST(HttpCache, EvictionRecyclesOnlyUnheldBodies) {
  HttpCache cache(/*shards=*/1, /*max_bytes=*/256);  // two 100-byte bodies fit
  const std::string held_body(100, 'h');
  cache.Insert("/held", {200, "t/p", {}, held_body});
  std::shared_ptr<const HttpCache::Entry> held = cache.Lookup("/held");
  ASSERT_NE(held, nullptr);
  const char* held_bytes = held->body.data();
  cache.Insert("/free", {200, "t/p", {}, std::string(100, 'f')});
  const char* free_bytes = cache.Lookup("/free")->body.data();
  auto live_bytes = [&cache](std::initializer_list<const char*> keys) {
    size_t sum = 0;
    for (const char* key : keys) {
      auto entry = cache.Lookup(key);
      sum += entry != nullptr ? entry->body.size() + strlen(key) : 0;
    }
    return sum;
  };
  // Each insert evicts the oldest entry: /held first (still held, so its
  // buffer stays with its holder), then /free (recycled into /n1), and so on.
  cache.Insert("/n0", {200, "t/p", {}, std::string(100, '0')});
  EXPECT_EQ(cache.Lookup("/held"), nullptr);
  EXPECT_EQ(cache.SnapshotStats().bytes, live_bytes({"/free", "/n0"}));
  cache.Insert("/n1", {200, "t/p", {}, std::string(100, '1')});
  auto n1 = cache.Lookup("/n1");
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->body.data(), free_bytes);
  EXPECT_EQ(n1->body, std::string(100, '1'));
  n1.reset();
  EXPECT_EQ(cache.SnapshotStats().bytes, live_bytes({"/n0", "/n1"}));
  for (char c = '2'; c <= '5'; ++c) {
    std::string key = std::string("/n") + c;
    cache.Insert(key, {200, "t/p", {}, std::string(100, c)});
    auto entry = cache.Lookup(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->body, std::string(100, c));
  }
  HttpCache::Stats stats = cache.SnapshotStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, live_bytes({"/n4", "/n5"}));
  EXPECT_EQ(stats.bytes, 206u);
  EXPECT_EQ(stats.evictions, 6u);
  // A replaced entry keeps its FIFO position: /n4 is still the next victim.
  cache.Insert("/n5", {200, "t/p", {}, std::string(50, 'r')});
  EXPECT_EQ(cache.SnapshotStats().bytes, live_bytes({"/n4", "/n5"}));
  cache.Insert("/n6", {200, "t/p", {}, std::string(100, '6')});
  EXPECT_EQ(cache.Lookup("/n4"), nullptr);
  ASSERT_NE(cache.Lookup("/n5"), nullptr);
  EXPECT_EQ(cache.Lookup("/n5")->body, std::string(50, 'r'));
  EXPECT_EQ(cache.SnapshotStats().bytes, live_bytes({"/n5", "/n6"}));
  // A small body does not take a much larger evicted buffer: the budget
  // counts sizes, so that would hide the difference from it.
  cache.Insert("/x", {200, "t/p", {}, std::string(97, 'x')});  // fills to 255
  cache.Insert("/y", {200, "t/p", {}, std::string(20, 'y')});  // evicts /n5
  EXPECT_EQ(cache.Lookup("/n5"), nullptr);
  ASSERT_NE(cache.Lookup("/y"), nullptr);
  EXPECT_LT(cache.Lookup("/y")->body.capacity(), 100u);
  EXPECT_EQ(cache.SnapshotStats().bytes, live_bytes({"/n6", "/x", "/y"}));
  // The held entry never changed under its holder.
  EXPECT_EQ(held->body.data(), held_bytes);
  EXPECT_EQ(held->body, held_body);
}

TEST(HttpCache, SharedStatsClimbTheAnnotatedHierarchy) {
  HttpCache cache(/*shards=*/2, /*max_bytes=*/1 << 16);
  alignas(HttpCacheSharedStats) static char block[sizeof(HttpCacheSharedStats)];
  memset(block, 0, sizeof(block));
  HttpCacheSharedStats* shared = HttpCacheSharedStats::InitShared(block);
  cache.AttachSharedStats(shared);
  cache.Insert("/k", {200, "t/p", {}, "v"});  // shard lock -> stats mutex climb
  cache.Lookup("/k");
  cache.Lookup("/nope");
  mutex_enter(&shared->lock);
  EXPECT_EQ(shared->hits, 1u);
  EXPECT_EQ(shared->misses, 1u);
  EXPECT_EQ(shared->inserts, 1u);
  mutex_exit(&shared->lock);
}

// ---- Access log -------------------------------------------------------------

TEST(HttpAccessLog, LinesReachTheSinkInOrder) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  {
    HttpAccessLog log(fds[1]);
    log.Log(1, "GET", "/a", 200, 13, 42);
    log.Log(2, "POST", "/b", 404, 0, 7);
    log.Stop();
    EXPECT_EQ(log.lines_written(), 2u);
    EXPECT_EQ(log.lines_dropped(), 0u);
    log.Log(3, "GET", "/after-stop", 200, 1, 1);  // dropped, not crashed
    EXPECT_EQ(log.lines_dropped(), 1u);
  }
  close(fds[1]);
  std::string content;
  char buf[512];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    content.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  EXPECT_EQ(content,
            "conn=1 \"GET /a\" 200 13B 42us\n"
            "conn=2 \"POST /b\" 404 0B 7us\n");
}

// The connection thread writes its own line: the log runs no thread of its own.
TEST(HttpAccessLog, StartsNoThread) {
  int devnull = open("/dev/null", O_WRONLY | O_CLOEXEC);
  ASSERT_GE(devnull, 0);
  size_t before = Runtime::Get().ThreadCount();
  {
    HttpAccessLog log(devnull);
    for (int i = 0; i < 3; ++i) {
      log.Log(1, "GET", "/", 200, 1, 1);
    }
    EXPECT_EQ(Runtime::Get().ThreadCount(), before);
    log.Stop();
    EXPECT_EQ(log.lines_written(), 3u);
  }
  close(devnull);
}

// Writers share one sink: every line arrives whole, and each writer's lines
// arrive in the order it logged them.
TEST(HttpAccessLog, ConcurrentLinesArriveWhole) {
  constexpr int kWriters = 8;
  constexpr int kLines = 200;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string content;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
      content.append(buf, static_cast<size_t>(n));
    }
  });
  HttpAccessLog log(fds[1]);
  std::vector<thread_id_t> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.push_back(Spawn([&log, w] {
      for (int i = 0; i < kLines; ++i) {
        log.Log(w, "GET", "/w" + std::to_string(w), 200, i, i);
      }
    }));
  }
  for (thread_id_t id : writers) {
    EXPECT_TRUE(Join(id));
  }
  log.Stop();
  close(fds[1]);
  reader.join();
  close(fds[0]);
  EXPECT_EQ(log.lines_written(), uint64_t{kWriters * kLines});
  EXPECT_EQ(log.lines_dropped(), 0u);

  int next[kWriters] = {};
  int lines = 0;
  size_t start = 0;
  for (size_t end; (end = content.find('\n', start)) != std::string::npos;
       start = end + 1) {
    std::string line = content.substr(start, end + 1 - start);
    ASSERT_EQ(line.rfind("conn=", 0), 0u) << line;
    int w = atoi(line.c_str() + strlen("conn="));
    ASSERT_TRUE(w >= 0 && w < kWriters) << line;
    int i = next[w]++;
    std::string want = "conn=" + std::to_string(w) + " \"GET /w" +
                       std::to_string(w) + "\" 200 " + std::to_string(i) +
                       "B " + std::to_string(i) + "us\n";
    ASSERT_EQ(line, want);
    ++lines;
  }
  EXPECT_EQ(start, content.size());  // no partial line at the end
  EXPECT_EQ(lines, kWriters * kLines);
}

// A sink whose writes fail (EBADF: /dev/null opened read-only) drops every
// line, and Stop() still returns.
TEST(HttpAccessLog, FailedSinkDropsAndStopReturns) {
  int sink = open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(sink, 0);
  {
    HttpAccessLog log(sink);
    for (int i = 0; i < 5; ++i) {
      log.Log(1, "GET", "/", 200, 1, 1);
    }
    log.Stop();
    EXPECT_EQ(log.lines_written(), 0u);
    EXPECT_EQ(log.lines_dropped(), 5u);
  }
  close(sink);
}

// ---- Server end to end ------------------------------------------------------

int ConnectTo(uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(net_register(fd), 0);
  EXPECT_EQ(net_connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void CloseClient(int fd) {
  net_unregister(fd);
  close(fd);
}

// net_write has write(2) semantics (one successful syscall, possibly short —
// the injector exercises exactly that), so the client loops to full send.
bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = net_write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads messages off `fd` until `count` responses have been parsed (or an
// error/EOF). Returns the parsed responses.
std::vector<HttpMessage> ReadResponses(int fd, int count,
                                       int64_t timeout_ns = 5000 * kMs) {
  std::vector<HttpMessage> out;
  HttpParser parser(HttpParser::kResponse);
  char buf[4096];
  HttpMessage msg;
  while (static_cast<int>(out.size()) < count) {
    HttpParser::Result r = parser.Next(&msg);
    if (r == HttpParser::kMessage) {
      out.push_back(msg);
      continue;
    }
    if (r == HttpParser::kError) {
      ADD_FAILURE() << "response parse error: " << parser.error_reason();
      break;
    }
    ssize_t n = net_read_deadline(fd, buf, sizeof(buf), timeout_ns);
    if (n <= 0) {
      if (parser.Finish(&msg) == HttpParser::kMessage) {
        out.push_back(msg);
      }
      break;
    }
    parser.Feed(buf, static_cast<size_t>(n));
  }
  return out;
}

// Canonical test handler: echoes the target in the body, 404s /missing.
void InstallEchoHandler(HttpServerConfig* config,
                        std::atomic<int>* handler_calls = nullptr) {
  config->handler = [handler_calls](const HttpMessage& req, HttpExchange* ex) {
    if (handler_calls != nullptr) {
      handler_calls->fetch_add(1);
    }
    if (req.target == "/missing") {
      return;  // default 404
    }
    if (req.target == "/stream") {
      HttpChunkedWriter* w = ex->BeginChunked(200, "text/plain");
      w->WriteChunk("part:");
      w->WriteChunk("one,");
      w->WriteChunk("two");
      return;
    }
    ex->Respond(200, "text/plain", "target=" + std::string(req.target));
  };
}

TEST(HttpServer, KeepAliveServesSequentialRequests) {
  HttpServerConfig config;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SendAll(fd, "GET /r" + std::to_string(i) +
                                " HTTP/1.1\r\nHost: t\r\n\r\n"));
    std::vector<HttpMessage> resp = ReadResponses(fd, 1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].status, 200);
    EXPECT_EQ(resp[0].body, "target=/r" + std::to_string(i));
    EXPECT_TRUE(resp[0].keep_alive);
  }
  CloseClient(fd);
  server.Stop();
  HttpServerStats stats = server.SnapshotStats();
  EXPECT_EQ(stats.accepted, 1u);  // one connection carried all three
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
}

TEST(HttpServer, PipelinedRequestsAnswerInOrder) {
  HttpServerConfig config;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  // All three requests in one write; the server must answer in order.
  ASSERT_TRUE(SendAll(fd,
                      "GET /p0 HTTP/1.1\r\nHost: t\r\n\r\n"
                      "GET /p1 HTTP/1.1\r\nHost: t\r\n\r\n"
                      "GET /p2 HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::vector<HttpMessage> resp = ReadResponses(fd, 3);
  ASSERT_EQ(resp.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resp[i].status, 200);
    EXPECT_EQ(resp[i].body, "target=/p" + std::to_string(i));
  }
  CloseClient(fd);
  server.Stop();
}

TEST(HttpServer, MalformedRequestGetsErrorAndClose) {
  HttpServerConfig config;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd, "NOT A REQUEST AT ALL\r\n\r\n"));
  std::vector<HttpMessage> resp = ReadResponses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].status, 400);
  EXPECT_FALSE(resp[0].keep_alive);
  // The server closed: the next read is EOF.
  char ch;
  EXPECT_EQ(net_read_deadline(fd, &ch, 1, 2000 * kMs), 0);
  CloseClient(fd);
  server.Stop();
  EXPECT_EQ(server.SnapshotStats().parse_errors, 1u);
}

TEST(HttpServer, IdleKeepAliveConnectionIsReaped) {
  HttpServerConfig config;
  config.idle_timeout_ns = 80 * kMs;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  // One request proves the connection works, then it goes idle.
  ASSERT_TRUE(SendAll(fd, "GET /x HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponses(fd, 1).size(), 1u);
  int64_t start = MonotonicNowNs();
  char ch;
  EXPECT_EQ(net_read_deadline(fd, &ch, 1, 5000 * kMs), 0);  // EOF, no 408
  EXPECT_GE(MonotonicNowNs() - start, 60 * kMs);
  CloseClient(fd);
  server.Stop();
  EXPECT_EQ(server.SnapshotStats().idle_timeouts, 1u);
  EXPECT_EQ(server.SnapshotStats().request_timeouts, 0u);
}

TEST(HttpServer, StalledMidRequestGets408) {
  HttpServerConfig config;
  config.io_timeout_ns = 80 * kMs;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  // Half a request line, then silence: the client is at fault -> 408.
  ASSERT_TRUE(SendAll(fd, "GET /half HTTP"));
  std::vector<HttpMessage> resp = ReadResponses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].status, 408);
  EXPECT_FALSE(resp[0].keep_alive);
  CloseClient(fd);
  server.Stop();
  EXPECT_EQ(server.SnapshotStats().request_timeouts, 1u);
}

TEST(HttpServer, ChunkedResponseRoundTrip) {
  HttpServerConfig config;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd, "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::vector<HttpMessage> resp = ReadResponses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].status, 200);
  EXPECT_TRUE(resp[0].chunked);
  EXPECT_EQ(resp[0].body, "part:one,two");
  // Keep-alive survived the chunked response: a second request works.
  ASSERT_TRUE(SendAll(fd, "GET /again HTTP/1.1\r\nHost: t\r\n\r\n"));
  resp = ReadResponses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].body, "target=/again");
  CloseClient(fd);
  server.Stop();
}

TEST(HttpServer, CacheServesRepeatsWithoutTheHandler) {
  HttpCache cache(/*shards=*/4, /*max_bytes=*/1 << 20);
  std::atomic<int> handler_calls{0};
  HttpServerConfig config;
  config.cache = &cache;
  InstallEchoHandler(&config, &handler_calls);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  int fd = ConnectTo(server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SendAll(fd, "GET /cached HTTP/1.1\r\nHost: t\r\n\r\n"));
    std::vector<HttpMessage> resp = ReadResponses(fd, 1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].status, 200);
    EXPECT_EQ(resp[0].body, "target=/cached");
  }
  CloseClient(fd);
  server.Stop();
  EXPECT_EQ(handler_calls.load(), 1);  // fills once, then the cache answers
  HttpCache::Stats stats = cache.SnapshotStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(HttpServer, StopWakesParkedConnections) {
  HttpServerConfig config;
  InstallEchoHandler(&config);
  HttpServer server(std::move(config));
  ASSERT_EQ(server.Start(), 0);
  constexpr int kIdle = 8;
  int fds[kIdle];
  for (int i = 0; i < kIdle; ++i) {
    fds[i] = ConnectTo(server.port());
  }
  // Every connection has a server thread parked in the idle read.
  int64_t deadline = MonotonicNowNs() + 5000 * kMs;
  while (server.active_connections() < kIdle && MonotonicNowNs() < deadline) {
    io_sleep_ms(2);
  }
  ASSERT_EQ(server.active_connections(), kIdle);
  int64_t start = MonotonicNowNs();
  server.Stop();
  EXPECT_LT(MonotonicNowNs() - start, 5000 * kMs);  // did not ride the timeout
  EXPECT_EQ(server.active_connections(), 0);
  for (int i = 0; i < kIdle; ++i) {
    char ch;
    EXPECT_LE(net_read_deadline(fds[i], &ch, 1, 1000 * kMs), 0);
    CloseClient(fds[i]);
  }
}

// ---- Pre-fork shared statistics (stretch) -----------------------------------

TEST(HttpPrefork, SharedCacheStatsAcrossProcesses) {
#if SUNMT_TEST_TSAN
  GTEST_SKIP() << "fork1 of a TSan-instrumented multi-LWP process is not "
                  "supported (same skip as ipc_test fork tests)";
#else
  // Reserve a port (bound, never listening), then fork a child that serves it
  // with SO_REUSEPORT and publishes cache stats into the shared arena.
  int placeholder = socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  setsockopt(placeholder, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  setsockopt(placeholder, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_GE(placeholder, 0);
  ASSERT_EQ(bind(placeholder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(getsockname(placeholder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  uint16_t port = ntohs(addr.sin_port);

  SharedArena arena = SharedArena::CreateAnonymous(4096);
  ASSERT_TRUE(arena.valid());
  HttpCacheSharedStats* shared =
      HttpCacheSharedStats::InitShared(arena.New<HttpCacheSharedStats>());

  int ready[2], ctl[2];
  ASSERT_EQ(pipe(ready), 0);
  ASSERT_EQ(pipe(ctl), 0);
  pid_t pid = fork1();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: fresh runtime (fork1 reset), own poller, REUSEPORT server.
    close(placeholder);
    close(ready[0]);
    close(ctl[1]);
    if (net_poller_start() != 0) {
      _exit(2);
    }
    HttpCache cache(4, 1 << 20);
    cache.AttachSharedStats(shared);
    HttpServerConfig config;
    config.port = port;
    config.reuseport = true;
    config.cache = &cache;
    InstallEchoHandler(&config);
    HttpServer server(std::move(config));
    if (server.Start() != 0) {
      _exit(3);
    }
    char r = 'R';
    if (io_write(ready[1], &r, 1) != 1) {
      _exit(4);
    }
    char byte;
    while (io_read(ctl[0], &byte, 1) > 0) {
    }
    server.Stop();
    _exit(0);
  }
  close(ready[1]);
  close(ctl[0]);
  char byte;
  ASSERT_EQ(read(ready[0], &byte, 1), 1);  // child is listening
  close(ready[0]);

  constexpr int kReqs = 6;
  int fd = ConnectTo(port);
  for (int i = 0; i < kReqs; ++i) {
    ASSERT_TRUE(SendAll(fd, "GET /shared HTTP/1.1\r\nHost: t\r\n\r\n"));
    std::vector<HttpMessage> resp = ReadResponses(fd, 1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].status, 200);
  }
  CloseClient(fd);
  close(ctl[1]);  // EOF: child stops
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  close(placeholder);

  // The child's lookups crossed the process boundary via the shared mutex.
  mutex_enter(&shared->lock);
  uint64_t lookups = shared->hits + shared->misses;
  uint64_t inserts = shared->inserts;
  mutex_exit(&shared->lock);
  EXPECT_EQ(lookups, static_cast<uint64_t>(kReqs));
  EXPECT_EQ(inserts, 1u);
#endif
}

// ---- Injection shakedown ----------------------------------------------------

// The whole request path — accept, parse, cache, writev response, keep-alive
// loop, teardown — once per seed under schedule perturbation, injected
// faults, and short transfers. Failures print the replay spec.
TEST(HttpShakedown, ServerSurvivesInjectSweep) {
  sunmt_test::RunSweep("shakedown", "http", 0.08, inject::kOpAll,
                       [](SplitMix64&) {
    HttpCache cache(4, 1 << 20);
    HttpServerConfig config;
    config.cache = &cache;
    InstallEchoHandler(&config);
    HttpServer server(std::move(config));
    ASSERT_EQ(server.Start(), 0);
    constexpr int kConns = 3;
    thread_id_t clients[kConns];
    for (int c = 0; c < kConns; ++c) {
      uint16_t port = server.port();
      clients[c] = Spawn([port, c] {
        int fd = ConnectTo(port);
        // Mix of cacheable, 404, chunked, and a pipelined pair.
        ASSERT_TRUE(SendAll(fd, "GET /sweep HTTP/1.1\r\nHost: t\r\n\r\n"));
        std::vector<HttpMessage> resp = ReadResponses(fd, 1);
        ASSERT_EQ(resp.size(), 1u);
        EXPECT_EQ(resp[0].status, 200);
        ASSERT_TRUE(SendAll(fd,
                            "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n"
                            "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n"));
        resp = ReadResponses(fd, 2);
        ASSERT_EQ(resp.size(), 2u);
        EXPECT_EQ(resp[0].status, 404);
        EXPECT_EQ(resp[1].status, 200);
        EXPECT_EQ(resp[1].body, std::string("part:one,two"));
        (void)c;
        CloseClient(fd);
      });
    }
    for (int c = 0; c < kConns; ++c) {
      EXPECT_TRUE(Join(clients[c]));
    }
    server.Stop();
  });
}

}  // namespace
}  // namespace sunmt

int main(int argc, char** argv) {
  sunmt::RuntimeConfig config;
  config.initial_pool_lwps = 2;  // small fixed pool: connections must park
  sunmt::Runtime::Configure(config);
  ::testing::InitGoogleTest(&argc, argv);
  if (sunmt::net_poller_start() != 0) {
    fprintf(stderr, "net_poller_start failed\n");
    return 1;
  }
  return RUN_ALL_TESTS();
}
