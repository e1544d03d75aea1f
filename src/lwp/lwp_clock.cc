#include "src/lwp/lwp_clock.h"

#include <time.h>

#include <atomic>
#include <thread>

#include "src/lwp/lwp.h"
#include "src/util/clock.h"

namespace sunmt {
namespace {

std::atomic<bool> g_running{false};
std::atomic<uint64_t> g_ticks{0};

struct TickContext {
  int64_t wall_delta_ns;
};

void TickOne(Lwp* lwp, void* cookie) {
  auto* tick = static_cast<TickContext*>(cookie);
  lwp->SampleAndTick(tick->wall_delta_ns);
}

void ClockMain() {
  int64_t last_wall = MonotonicNowNs();
  for (;;) {
    struct timespec req = {0, LwpClock::kTickNs};
    nanosleep(&req, nullptr);
    int64_t now = MonotonicNowNs();
    TickContext tick{now - last_wall};
    last_wall = now;
    LwpRegistry::ForEach(&TickOne, &tick);
    g_ticks.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void LwpClock::EnsureRunning() {
  if (!g_running.exchange(true, std::memory_order_acq_rel)) {
    std::thread(ClockMain).detach();
  }
}

void LwpClock::RestartAfterFork() {
  if (Running()) {
    std::thread(ClockMain).detach();
  }
}

bool LwpClock::Running() { return g_running.load(std::memory_order_acquire); }

uint64_t LwpClock::TickCount() { return g_ticks.load(std::memory_order_relaxed); }

}  // namespace sunmt
