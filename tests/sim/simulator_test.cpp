#include "curb/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "curb/sim/rng.hpp"
#include "curb/sim/stats.hpp"
#include "curb/sim/time.hpp"

namespace curb::sim {
namespace {

using namespace curb::sim::literals;

TEST(SimTime, ArithmeticAndComparisons) {
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3000);
  EXPECT_EQ((2_ms + 500_us).as_micros(), 2500);
  EXPECT_EQ((5_ms - 2_ms).as_micros(), 3000);
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_EQ(3 * 2_ms, 6_ms);
  EXPECT_EQ(6_ms / 3, 2_ms);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds_f(0.25).as_seconds_f(), 0.25);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3_ms, [&] { order.push_back(3); });
  sim.schedule(1_ms, [&] { order.push_back(1); });
  sim.schedule(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_ms);
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  SimTime inner_fired = SimTime::zero();
  sim.schedule(1_ms, [&] {
    sim.schedule(2_ms, [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, 3_ms);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ms, [&] { ++fired; });
  sim.schedule(5_ms, [&] { ++fired; });
  sim.run_until(2_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2_ms);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule(1_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double-cancel reports false
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidHandleIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule(2_ms, [&] {
    EXPECT_THROW(sim.schedule_at(1_ms, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulator, EventBudgetThrowsOnLivelock) {
  Simulator sim;
  sim.set_event_budget(100);
  std::function<void()> loop = [&] { sim.schedule(1_us, loop); };
  sim.schedule(1_us, loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng{9};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{5};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Summary, MeanAndStddev) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(Summary, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

}  // namespace
}  // namespace curb::sim
