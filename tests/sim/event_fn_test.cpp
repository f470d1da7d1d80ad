#include "curb/sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::sim {
namespace {

TEST(EventFn, InvokesSmallCallable) {
  int calls = 0;
  EventFn fn{[&calls] { ++calls; }};
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, EmptyThrowsBadFunctionCall) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_THROW(fn(), std::bad_function_call);
}

TEST(EventFn, MoveTransfersCallableAndEmptiesSource) {
  int calls = 0;
  EventFn a{[&calls] { ++calls; }};
  EventFn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);

  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(41);
  EventFn fn{[owned = std::move(owned)] { ++*owned; }};
  fn();  // no crash; unique_ptr lived through the type-erasure move
}

TEST(EventFn, DestructorRunsCaptureDestructors) {
  auto token = std::make_shared<int>(7);
  {
    EventFn fn{[token] { (void)*token; }};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A capture too large for the 64-byte inline buffer: heap-allocated.
struct BigCapture {
  std::array<unsigned char, 128> blob{};
  int* counter = nullptr;
  void operator()() const { ++*counter; }
};

TEST(EventFn, OversizedCallablesStillWork) {
  static_assert(sizeof(BigCapture) > detail::kEventInlineSize);
  int calls = 0;
  BigCapture big;
  big.counter = &calls;
  EventFn fn{big};
  EventFn moved{std::move(fn)};  // pointer relocation keeps the same object
  moved();
  EXPECT_EQ(calls, 1);
}

// Small enough for the inline buffer, but aligned past max_align_t, so it
// takes the heap path, which must honour the alignment.
struct alignas(64) AlignedCapture {
  int* misaligned = nullptr;
  void operator()() const {
    if (reinterpret_cast<std::uintptr_t>(this) % alignof(AlignedCapture) != 0) {
      ++*misaligned;
    }
  }
};

TEST(EventFn, OverAlignedCallableIsAligned) {
  static_assert(sizeof(AlignedCapture) <= detail::kEventInlineSize);
  int misaligned = 0;
  std::vector<EventFn> fns;  // all alive at once: consecutive heap blocks
  for (int i = 0; i < 1000; ++i) fns.emplace_back(AlignedCapture{&misaligned});
  for (EventFn& fn : fns) fn();
  EXPECT_EQ(misaligned, 0);
}

TEST(EventFn, SimulatorSchedulesEverySizeClass) {
  Simulator sim;
  int calls = 0;
  int misaligned = 0;
  BigCapture big;
  big.counter = &calls;
  sim.schedule(SimTime::millis(1), [&calls] { ++calls; });
  sim.schedule(SimTime::millis(2), big);
  sim.schedule(SimTime::millis(3), AlignedCapture{&misaligned});
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(misaligned, 0);
}

TEST(Simulator, AccumulatesHostRunTime) {
  Simulator sim;
  EXPECT_EQ(sim.host_run_ns(), 0u);
  for (int i = 0; i < 100; ++i) {
    sim.schedule(SimTime::millis(i), [] {});
  }
  sim.run();
  EXPECT_GT(sim.host_run_ns(), 0u);
  const auto after_run = sim.host_run_ns();
  sim.schedule(SimTime::millis(200), [] {});
  sim.run();
  EXPECT_GT(sim.host_run_ns(), after_run);
}

}  // namespace
}  // namespace curb::sim
