// Unit tests for src/lwp: parking, kernel-wait accounting, usage, timers,
// profiling, and the registry.
//
// The LWP clock that runs the virtual timers and profiling down is a duty of
// the runtime's service loop, so this process builds a runtime up front, as
// any program using the package has; the raw LWPs under test stay outside it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/runtime.h"
#include "src/lwp/kernel_wait.h"
#include "src/lwp/lwp.h"
#include "src/util/clock.h"

namespace sunmt {
namespace {

// Builds the runtime, and waits for its pool LWPs to register, before any
// test counts registry entries.
class RuntimeEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    int pool = Runtime::Get().pool_size();
    while (LwpRegistry::Count() < static_cast<size_t>(pool)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};
const ::testing::Environment* const kRuntimeEnv =
    ::testing::AddGlobalTestEnvironment(new RuntimeEnvironment);

// Simple LWP main that parks until unparked `rounds` times, then exits.
struct ParkPlan {
  std::atomic<int> rounds{0};
  std::atomic<int> completed{0};
};

void ParkingMain(Lwp* self, void* arg) {
  auto* plan = static_cast<ParkPlan*>(arg);
  int rounds = plan->rounds.load();
  for (int i = 0; i < rounds; ++i) {
    self->Park();
    plan->completed.fetch_add(1);
  }
}

TEST(Lwp, ParkUnparkRoundTrips) {
  ParkPlan plan;
  plan.rounds.store(3);
  Lwp lwp(101);
  lwp.Start(&ParkingMain, &plan);
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    lwp.Unpark();
    // At most one token is kept: unparking again before this round's park
    // returned would lose the token and leave the last Park waiting forever.
    while (plan.completed.load() < i + 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  lwp.Join();
  EXPECT_EQ(plan.completed.load(), 3);
  EXPECT_TRUE(lwp.Finished());
}

TEST(Lwp, UnparkBeforeParkIsNotLost) {
  // Token semantics: an unpark delivered before the park must satisfy it.
  ParkPlan plan;
  plan.rounds.store(1);
  Lwp lwp(102);
  lwp.Unpark();  // deposit token before the LWP even starts
  lwp.Start(&ParkingMain, &plan);
  lwp.Join();
  EXPECT_EQ(plan.completed.load(), 1);
}

void KernelWaitMain(Lwp* self, void* arg) {
  auto* observed = static_cast<std::atomic<int>*>(arg);
  EXPECT_FALSE(self->InKernelWait());
  {
    KernelWaitScope wait(/*indefinite=*/true);
    EXPECT_TRUE(self->InKernelWait());
    EXPECT_TRUE(self->InIndefiniteWait());
    {
      KernelWaitScope nested(/*indefinite=*/false);  // nesting keeps outer flags
      EXPECT_TRUE(self->InKernelWait());
    }
    EXPECT_TRUE(self->InKernelWait());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(self->InKernelWait());
  EXPECT_FALSE(self->InIndefiniteWait());
  observed->store(1);
}

TEST(Lwp, KernelWaitBracketsTrackDepthAndTime) {
  std::atomic<int> observed{0};
  Lwp lwp(103);
  lwp.Start(&KernelWaitMain, &observed);
  lwp.Join();
  EXPECT_EQ(observed.load(), 1);
  LwpUsage usage = lwp.Usage();
  EXPECT_GE(usage.kernel_calls, 2u);
  EXPECT_GE(usage.system_wait_ns, 9 * 1000 * 1000);
}

void BusyMain(Lwp* self, void* arg) {
  (void)self;
  auto* stop = static_cast<std::atomic<bool>*>(arg);
  volatile uint64_t sink = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    for (int i = 0; i < 10000; ++i) {
      sink = sink + i;
    }
  }
}

TEST(Lwp, UsageAccumulatesUserTime) {
  std::atomic<bool> stop{false};
  Lwp lwp(104);
  lwp.Start(&BusyMain, &stop);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  LwpUsage usage = lwp.Usage();
  stop.store(true);
  lwp.Join();
  EXPECT_GT(usage.user_ns, 1 * 1000 * 1000);  // burned at least 1ms of CPU
}

struct TimerRecord {
  std::atomic<int> virtual_fires{0};
  std::atomic<int> prof_fires{0};
};

void TimerCallback(Lwp* lwp, LwpTimerKind kind, void* cookie) {
  (void)lwp;
  auto* rec = static_cast<TimerRecord*>(cookie);
  if (kind == LwpTimerKind::kVirtual) {
    rec->virtual_fires.fetch_add(1);
  } else {
    rec->prof_fires.fetch_add(1);
  }
}

struct TimedBusyArgs {
  TimerRecord* record;
  std::atomic<bool>* stop;
};

void TimedBusyMain(Lwp* self, void* arg) {
  auto* args = static_cast<TimedBusyArgs*>(arg);
  // Both timers armed at 20ms of (virtual) time.
  self->SetTimer(LwpTimerKind::kVirtual, 20 * 1000 * 1000, &TimerCallback, args->record);
  self->SetTimer(LwpTimerKind::kProf, 20 * 1000 * 1000, &TimerCallback, args->record);
  volatile uint64_t sink = 0;
  while (!args->stop->load(std::memory_order_relaxed)) {
    for (int i = 0; i < 10000; ++i) {
      sink = sink + i;
    }
  }
}

TEST(Lwp, VirtualTimersFireUnderCpuLoad) {
  TimerRecord record;
  std::atomic<bool> stop{false};
  TimedBusyArgs args{&record, &stop};
  Lwp lwp(105);
  lwp.Start(&TimedBusyMain, &args);
  // Burn well over 20ms of CPU on the LWP; the 5ms clock should tick it.
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while ((record.virtual_fires.load() == 0 || record.prof_fires.load() == 0) &&
         MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  lwp.Join();
  EXPECT_GE(record.virtual_fires.load(), 1);  // SIGVTALRM analogue
  EXPECT_GE(record.prof_fires.load(), 1);     // SIGPROF analogue
}

struct ProfiledArgs {
  std::atomic<uint64_t>* buffer;
  std::atomic<bool>* stop;
};

void ProfiledMain(Lwp* self, void* arg) {
  auto* args = static_cast<ProfiledArgs*>(arg);
  self->SetProfilingBuffer(args->buffer, 4);
  self->set_prof_slot(2);
  volatile uint64_t sink = 0;
  while (!args->stop->load(std::memory_order_relaxed)) {
    for (int i = 0; i < 10000; ++i) {
      sink = sink + i;
    }
  }
}

TEST(Lwp, ProfilingTicksLandInSelectedSlot) {
  std::atomic<uint64_t> buffer[4] = {};
  std::atomic<bool> stop{false};
  ProfiledArgs args{buffer, &stop};
  Lwp lwp(106);
  lwp.Start(&ProfiledMain, &args);
  int64_t deadline = MonotonicNowNs() + 2 * 1000 * 1000 * 1000ll;
  while (buffer[2].load() == 0 && MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  lwp.Join();
  EXPECT_GT(buffer[2].load(), 0u);
  EXPECT_EQ(buffer[0].load(), 0u);
  EXPECT_EQ(buffer[1].load(), 0u);
  EXPECT_EQ(buffer[3].load(), 0u);
}

void TrivialMain(Lwp* self, void* arg) {
  (void)self;
  static_cast<std::atomic<int>*>(arg)->fetch_add(1);
}

TEST(LwpRegistry, TracksLiveLwps) {
  size_t before = LwpRegistry::Count();
  std::atomic<int> ran{0};
  {
    ParkPlan plan;
    plan.rounds.store(1);
    Lwp lwp(107);
    lwp.Start(&ParkingMain, &plan);
    // The LWP registers itself once its thread starts.
    int64_t deadline = MonotonicNowNs() + 1 * 1000 * 1000 * 1000ll;
    while (LwpRegistry::Count() < before + 1 && MonotonicNowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(LwpRegistry::Count(), before + 1);
    lwp.Unpark();
    lwp.Join();
  }
  EXPECT_EQ(LwpRegistry::Count(), before);
  (void)ran;
  (void)TrivialMain;
}

TEST(Lwp, SchedulingClassIsRecorded) {
  ParkPlan plan;
  plan.rounds.store(1);
  Lwp lwp(108);
  lwp.Start(&ParkingMain, &plan);
  lwp.SetScheduling(SchedClass::kRealtime, 7);
  EXPECT_EQ(lwp.sched_class(), SchedClass::kRealtime);
  EXPECT_EQ(lwp.sched_priority(), 7);
  lwp.Unpark();
  lwp.Join();
}

TEST(Lwp, BindToCpuZeroSucceeds) {
  ParkPlan plan;
  plan.rounds.store(1);
  Lwp lwp(109);
  lwp.Start(&ParkingMain, &plan);
  // Give the kernel thread time to publish its pthread handle.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(lwp.BindToCpu(0));
  lwp.Unpark();
  lwp.Join();
}

}  // namespace
}  // namespace sunmt
