#include "curb/opt/cap.hpp"

#include <gtest/gtest.h>

namespace curb::opt {
namespace {

/// 4 switches, 6 controllers, everything eligible, group size 2.
CapInstance small_instance() {
  CapInstance inst = CapInstance::uniform(4, 6, 2, 1.0, 100.0);
  // Mild delay structure: controller j is "close" to switch i when i%3==j%3.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      inst.cs_delay[i][j] = (i % 3 == j % 3) ? 1.0 : 5.0;
    }
  }
  return inst;
}

TEST(Assignment, BasicAccessors) {
  Assignment a{2, 3};
  EXPECT_EQ(a.num_switches(), 2u);
  EXPECT_EQ(a.num_controllers(), 3u);
  a.set(0, 1, true);
  a.set(1, 1, true);
  a.set(1, 2, true);
  EXPECT_TRUE(a.assigned(0, 1));
  EXPECT_EQ(a.group_of(1), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(a.switches_of(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(a.controllers_used(), 2u);
  EXPECT_EQ(a.total_links(), 3u);
  EXPECT_TRUE(a.controller_used(2));
  EXPECT_FALSE(a.controller_used(0));
}

TEST(Assignment, PdlMatchesPaperExample) {
  // Paper: 30 links; remove 2, add 3 -> PDL = 5/33 ~= 15%.
  Assignment before{6, 10};
  std::size_t placed = 0;
  for (std::size_t i = 0; i < 6 && placed < 30; ++i) {
    for (std::size_t j = 0; j < 10 && placed < 30; ++j) {
      if ((i + j) % 2 == 0) {
        before.set(i, j, true);
        ++placed;
      }
    }
  }
  ASSERT_EQ(before.total_links(), 30u);
  Assignment after = before;
  // Remove two links.
  const auto g0 = after.group_of(0);
  after.set(0, g0[0], false);
  after.set(0, g0[1], false);
  // Add three links that were absent.
  std::size_t added = 0;
  for (std::size_t i = 0; i < 6 && added < 3; ++i) {
    for (std::size_t j = 0; j < 10 && added < 3; ++j) {
      if (!before.assigned(i, j)) {
        after.set(i, j, true);
        ++added;
      }
    }
  }
  EXPECT_NEAR(Assignment::pdl(before, after), 5.0 / 33.0, 1e-9);
}

TEST(Assignment, PdlZeroWhenUnchanged) {
  Assignment a{2, 2};
  a.set(0, 0, true);
  EXPECT_DOUBLE_EQ(Assignment::pdl(a, a), 0.0);
}

TEST(Assignment, PdlDimensionMismatchThrows) {
  EXPECT_THROW((void)Assignment::pdl(Assignment{1, 2}, Assignment{2, 2}),
               std::invalid_argument);
}

TEST(CapInstance, ValidateCatchesBadShapes) {
  CapInstance inst = CapInstance::uniform(2, 3, 1, 1.0, 10.0);
  EXPECT_NO_THROW(inst.validate());
  inst.switch_load.pop_back();
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Greedy, CoversAllSwitches) {
  const CapInstance inst = small_instance();
  const auto a = greedy_assign(inst);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->feasible_for(inst));
}

TEST(Greedy, RespectsCapacity) {
  CapInstance inst = CapInstance::uniform(4, 4, 1, 1.0, 2.0);
  const auto a = greedy_assign(inst);
  ASSERT_TRUE(a.has_value());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_LE(a->switches_of(j).size(), 2u);
  }
}

TEST(Greedy, FailsWhenImpossible) {
  // 3 switches need 2 controllers each, but each controller fits one switch
  // and there are only 4 -> needs 6 slots, has 4.
  CapInstance inst = CapInstance::uniform(3, 4, 2, 1.0, 1.0);
  EXPECT_FALSE(greedy_assign(inst).has_value());
}

TEST(SolveCap, OptimalUsesMinimumControllers) {
  // Group size 2, no capacity pressure: two controllers suffice.
  const CapInstance inst = small_instance();
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.assignment.feasible_for(inst));
  EXPECT_EQ(r.assignment.controllers_used(), 2u);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(SolveCap, CapacityForcesMoreControllers) {
  // Each controller holds 2 switches; 4 switches x group 2 = 8 slots -> >= 4.
  CapInstance inst = CapInstance::uniform(4, 6, 2, 1.0, 2.0);
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.assignment.feasible_for(inst));
  EXPECT_EQ(r.assignment.controllers_used(), 4u);
}

TEST(SolveCap, CsDelayLimitsEligibility) {
  CapInstance inst = small_instance();
  inst.max_cs_delay = 2.0;  // only the "close" controllers are eligible
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    for (const std::size_t j : r.assignment.group_of(i)) {
      EXPECT_LE(inst.cs_delay[i][j], 2.0);
    }
  }
}

TEST(SolveCap, InfeasibleWhenDelayTooTight) {
  CapInstance inst = small_instance();
  inst.max_cs_delay = 0.5;  // nothing is eligible
  EXPECT_FALSE(solve_cap(inst).feasible);
}

TEST(SolveCap, ByzantineControllersExcluded) {
  CapInstance inst = small_instance();
  inst.byzantine[0] = true;
  inst.byzantine[3] = true;
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.assignment.controller_used(0));
  EXPECT_FALSE(r.assignment.controller_used(3));
}

TEST(SolveCap, FixedLeaderIsKept) {
  CapInstance inst = small_instance();
  inst.fixed_leader[0] = 5;
  inst.fixed_leader[2] = 5;
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.assignment.assigned(0, 5));
  EXPECT_TRUE(r.assignment.assigned(2, 5));
}

TEST(SolveCap, FixedLeaderOnByzantineIsInfeasible) {
  CapInstance inst = small_instance();
  inst.byzantine[5] = true;
  inst.fixed_leader[0] = 5;
  EXPECT_FALSE(solve_cap(inst).feasible);
}

TEST(SolveCap, C2cConstraintSeparatesFarControllers) {
  // Controllers {0,1,2} mutually close; {3,4,5} mutually close; the two
  // cliques are far apart. With D_c,c tight, no group may mix cliques.
  CapInstance inst = CapInstance::uniform(4, 6, 2, 1.0, 100.0);
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t j2 = 0; j2 < 6; ++j2) {
      const bool same_clique = (j < 3) == (j2 < 3);
      inst.cc_delay[j][j2] = same_clique ? 1.0 : 50.0;
    }
  }
  inst.max_cc_delay = 5.0;
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto group = r.assignment.group_of(i);
    ASSERT_GE(group.size(), 2u);
    const bool first_clique = group[0] < 3;
    for (const std::size_t j : group) EXPECT_EQ(j < 3, first_clique);
  }
}

TEST(SolveCap, LcrRequiresPrevious) {
  const CapInstance inst = small_instance();
  EXPECT_THROW((void)solve_cap(inst, CapObjective::kLeastMovement, nullptr),
               std::invalid_argument);
}

TEST(SolveCap, LcrMovesLessThanOrEqualTcr) {
  // Start from a solved assignment; mark one used controller byzantine and
  // re-solve both ways. LCR must change at most as many links as TCR.
  CapInstance inst = small_instance();
  const CapResult base = solve_cap(inst);
  ASSERT_TRUE(base.feasible);
  const std::size_t victim = base.assignment.group_of(0)[0];
  inst.byzantine[victim] = true;

  const CapResult tcr = solve_cap(inst, CapObjective::kTrivial, &base.assignment);
  const CapResult lcr = solve_cap(inst, CapObjective::kLeastMovement, &base.assignment);
  ASSERT_TRUE(tcr.feasible);
  ASSERT_TRUE(lcr.feasible);
  EXPECT_FALSE(lcr.assignment.controller_used(victim));
  EXPECT_LE(Assignment::pdl(base.assignment, lcr.assignment),
            Assignment::pdl(base.assignment, tcr.assignment) + 1e-9);
}

TEST(SolveCap, TcrAndLcrUseSameControllerCountOnEasyInstances) {
  // Both objectives minimize controller usage first (the paper observes the
  // same used-controller count for TCR and LCR in Fig. 7).
  CapInstance inst = small_instance();
  const CapResult base = solve_cap(inst);
  ASSERT_TRUE(base.feasible);
  inst.byzantine[base.assignment.group_of(0)[0]] = true;
  const CapResult tcr = solve_cap(inst, CapObjective::kTrivial, &base.assignment);
  const CapResult lcr = solve_cap(inst, CapObjective::kLeastMovement, &base.assignment);
  ASSERT_TRUE(tcr.feasible && lcr.feasible);
  EXPECT_EQ(tcr.assignment.controllers_used(), lcr.assignment.controllers_used());
}

TEST(RepairAssign, KeepsLegalLinksAndStripsByzantine) {
  CapInstance inst = small_instance();
  const CapResult base = solve_cap(inst);
  ASSERT_TRUE(base.feasible);
  const std::size_t victim = base.assignment.group_of(1)[0];
  inst.byzantine[victim] = true;
  const auto repaired = repair_assign(inst, base.assignment);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_TRUE(repaired->feasible_for(inst));
  EXPECT_FALSE(repaired->controller_used(victim));
  // Links not involving the victim are preserved.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (j != victim && base.assignment.assigned(i, j)) {
        EXPECT_TRUE(repaired->assigned(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(SolveCap, PaperScaleInternetLikeInstance) {
  // 34 switches, 16 controllers, f = 1 -> group size 4 (the paper's default
  // Internet2 configuration). Must solve quickly and exactly.
  CapInstance inst = CapInstance::uniform(34, 16, 4, 1.0, 40.0);
  for (std::size_t i = 0; i < 34; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      inst.cs_delay[i][j] = 1.0 + static_cast<double>((i * 7 + j * 13) % 20);
    }
  }
  inst.max_cs_delay = 15.0;
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.assignment.feasible_for(inst));
  // 34 switches x group 4 = 136 links; capacity 40 -> at least 4 controllers.
  EXPECT_GE(r.assignment.controllers_used(), 4u);
  EXPECT_LE(r.assignment.controllers_used(), 16u);
}

TEST(UsageLowerBound, CountsGroupSizeAndCapacity) {
  // Group size alone: a switch needs 2 distinct controllers.
  EXPECT_EQ(usage_lower_bound(CapInstance::uniform(4, 6, 2, 1.0, 100.0)), 2.0);
  // Capacity: 4 switches x group 2 = 8 units of load, 2 per controller.
  EXPECT_EQ(usage_lower_bound(CapInstance::uniform(4, 6, 2, 1.0, 2.0)), 4.0);
  // The largest usable capacities count first; byzantine ones not at all.
  CapInstance inst = CapInstance::uniform(4, 4, 1, 1.0, 1.0);
  inst.controller_capacity = {3.0, 1.0, 2.0, 4.0};
  inst.byzantine[3] = true;
  EXPECT_EQ(usage_lower_bound(inst), 2.0);  // 3 + 2 >= 4
  // Every usable controller together falls short: no bound to give.
  inst.controller_capacity = {1.0, 1.0, 1.0, 4.0};
  EXPECT_FALSE(usage_lower_bound(inst).has_value());
}

TEST(SolveCap, WarmStartAtLowerBoundIsProvenWithoutSearch) {
  // The greedy covers every switch with 2 controllers, which the group size
  // already proves optimal: branch-and-bound never opens a node.
  const CapInstance inst = small_instance();
  const CapResult r = solve_cap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.stats.proven);
  EXPECT_TRUE(r.stats.used_greedy_fallback);
  EXPECT_EQ(r.stats.milp_nodes, 0u);
  EXPECT_DOUBLE_EQ(r.objective, 2.0);
  // The bound is for controller usage only; LCR searches as before.
  const CapResult lcr = solve_cap(inst, CapObjective::kLeastMovement, &r.assignment);
  ASSERT_TRUE(lcr.feasible);
  EXPECT_TRUE(lcr.stats.proven);
  EXPECT_GT(lcr.stats.milp_nodes, 0u);
}

TEST(SolveCap, StatsArePopulated) {
  const CapResult r = solve_cap(small_instance());
  EXPECT_GT(r.stats.num_variables, 0u);
  EXPECT_GT(r.stats.num_constraints, 0u);
  EXPECT_GE(r.stats.wall_time_ms, 0.0);
}

}  // namespace
}  // namespace curb::opt
