// Adversarial and degenerate inputs for every solver backend: proven
// infeasibility, unbounded and cycling-prone LPs, empty and 1x1 instances,
// plus the CapInstance::validate() regressions (ragged delay matrices used
// to slip through and misindex inside the solvers) and the instance JSON
// round-trip.

#include "curb/opt/solver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "curb/opt/instance_gen.hpp"
#include "curb/opt/instance_io.hpp"

namespace curb::opt {
namespace {

const CapSolverBackend kAllBackends[] = {CapSolverBackend::kDense,
                                         CapSolverBackend::kHeuristic};

TEST(SolverEdge, CapacityShortfallIsInfeasibleOnEveryBackend) {
  // 4 switches of load 10 need 2 controllers each = 80 load total, but the
  // 3 controllers offer 3 x 5 = 15.
  CapInstance inst = CapInstance::uniform(4, 3, 2, 10.0, 5.0);
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    EXPECT_FALSE(r.feasible);
  }
}

TEST(SolverEdge, GroupLargerThanHonestControllersIsInfeasible) {
  CapInstance inst = CapInstance::uniform(2, 4, 4, 1.0, 100.0);
  inst.byzantine[1] = true;  // only 3 honest controllers remain, B_i = 4
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    EXPECT_FALSE(r.feasible);
  }
}

TEST(SolverEdge, IneligibleFixedLeaderIsInfeasible) {
  CapInstance inst = CapInstance::uniform(2, 4, 2, 1.0, 100.0);
  inst.byzantine[3] = true;
  inst.fixed_leader[0] = 3;  // pinned to a byzantine controller
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    EXPECT_FALSE(r.feasible);
  }
}

TEST(SolverEdge, UnboundedLpIsDetected) {
  // minimize -x with x free upward: unbounded below.
  LpProblem lp;
  const int x = lp.add_variable(-1.0, 0.0, LpProblem::kInf);
  const int y = lp.add_variable(0.0, 0.0, LpProblem::kInf);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, LpProblem::Sense::kLe, 5.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(SolverEdge, BealeCyclingInstanceTerminatesOptimal) {
  // Beale's classic cycling example: Dantzig pricing with a naive ratio test
  // cycles forever at the degenerate origin. The simplex's Bland guard must
  // break the cycle and reach the optimum at -0.05.
  LpProblem lp;
  const int x1 = lp.add_variable(-0.75, 0.0, LpProblem::kInf);
  const int x2 = lp.add_variable(150.0, 0.0, LpProblem::kInf);
  const int x3 = lp.add_variable(-0.02, 0.0, LpProblem::kInf);
  const int x4 = lp.add_variable(6.0, 0.0, LpProblem::kInf);
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
                    LpProblem::Sense::kLe, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
                    LpProblem::Sense::kLe, 0.0);
  lp.add_constraint({{x3, 1.0}}, LpProblem::Sense::kLe, 1.0);

  const LpSolution dense = solve_lp(lp);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  EXPECT_NEAR(dense.objective, -0.05, 1e-9);
}

TEST(SolverEdge, DegenerateEqualityLpSolves) {
  // Equality-pinned variables and a redundant row: phase 1 must exit with
  // artificials pinned even though the feasible set is a single point.
  LpProblem lp;
  const int x = lp.add_variable(1.0, 0.0, 10.0);
  const int y = lp.add_variable(2.0, 0.0, 10.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, LpProblem::Sense::kEq, 4.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, LpProblem::Sense::kEq, 8.0);  // redundant
  lp.add_constraint({{x, 1.0}}, LpProblem::Sense::kEq, 3.0);

  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0 + 2.0 * 1.0, 1e-7);
}

TEST(SolverEdge, EmptyInstanceIsTriviallyFeasible) {
  const CapInstance inst;  // 0 switches, 0 controllers
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.objective, 0.0);
    EXPECT_EQ(r.assignment.total_links(), 0u);
  }
}

TEST(SolverEdge, OneByOneInstance) {
  const CapInstance inst = CapInstance::uniform(1, 1, 1, 1.0, 1.0);
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.assignment.assigned(0, 0));
    EXPECT_DOUBLE_EQ(r.objective, 1.0);
  }
}

TEST(SolverEdge, ZeroCapacityZeroLoadIsFeasible) {
  // Loads of exactly zero fit into capacity of exactly zero.
  const CapInstance inst = CapInstance::uniform(2, 2, 1, 0.0, 0.0);
  for (const CapSolverBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const CapResult r = solve_cap_with(backend, inst);
    EXPECT_TRUE(r.feasible);
  }
}

// --- CapInstance::validate() regressions -----------------------------------
// Ragged delay rows used to pass validation whenever the corresponding
// delay cap was disabled, and then misindex inside the solvers.

TEST(ValidateRegression, RaggedCsDelayRowIsRejected) {
  CapInstance inst = CapInstance::uniform(3, 6, 2, 1.0, 100.0);
  inst.cs_delay[2].resize(3);  // 3 columns instead of 6
  EXPECT_THROW(
      {
        try {
          inst.validate();
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string{e.what()}.find("cs_delay row 2"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);
  // The cap being disabled is NOT an excuse: every solver indexes the matrix.
  inst.max_cs_delay = CapInstance::kNoLimit;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(ValidateRegression, RaggedCcDelayRowIsRejectedEvenWithoutCap) {
  CapInstance inst = CapInstance::uniform(3, 4, 2, 1.0, 100.0);
  ASSERT_EQ(inst.max_cc_delay, CapInstance::kNoLimit);
  inst.cc_delay[1].push_back(0.0);  // 5 columns instead of 4
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(ValidateRegression, MissingCcDelayOnlyAllowedWithoutCap) {
  CapInstance inst = CapInstance::uniform(3, 4, 2, 1.0, 100.0);
  inst.cc_delay.clear();  // fine: the C2C constraint is disabled
  EXPECT_NO_THROW(inst.validate());
  inst.max_cc_delay = 10.0;  // now the solvers would index an empty matrix
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(ValidateRegression, TruncatedCcDelayIsRejected) {
  CapInstance inst = CapInstance::uniform(3, 4, 2, 1.0, 100.0);
  inst.cc_delay.resize(2);  // 2 rows instead of 4
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(ValidateRegression, FixedLeaderOutOfRangeIsRejected) {
  CapInstance inst = CapInstance::uniform(2, 4, 2, 1.0, 100.0);
  inst.fixed_leader[1] = 4;  // controllers are 0..3
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst.fixed_leader[1] = -2;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(ValidateRegression, NegativeLoadOrCapacityIsRejected) {
  CapInstance load = CapInstance::uniform(2, 2, 1, 1.0, 100.0);
  load.switch_load[0] = -1.0;
  EXPECT_THROW(load.validate(), std::invalid_argument);
  CapInstance cap = CapInstance::uniform(2, 2, 1, 1.0, 100.0);
  cap.controller_capacity[1] = -0.5;
  EXPECT_THROW(cap.validate(), std::invalid_argument);
}

// --- Instance JSON round-trip ----------------------------------------------

TEST(InstanceIo, RoundTripPreservesEverything) {
  GenProfile profile;
  profile.switches = 7;
  profile.controllers = 5;
  profile.cs_delay_cap = true;
  profile.cc_delay_cap = true;
  profile.byzantine_frac = 0.2;
  profile.fixed_leader_frac = 0.4;
  profile.seed = 99;
  StoredInstance stored;
  stored.name = "roundtrip";
  stored.instance = generate_instance(profile);
  stored.tcr_optimum = 4.0;
  stored.feasible = true;

  const StoredInstance back = instance_from_json(instance_to_json(stored));
  EXPECT_EQ(back.name, "roundtrip");
  EXPECT_EQ(back.instance.num_switches, stored.instance.num_switches);
  EXPECT_EQ(back.instance.num_controllers, stored.instance.num_controllers);
  EXPECT_EQ(back.instance.group_size, stored.instance.group_size);
  EXPECT_EQ(back.instance.switch_load, stored.instance.switch_load);
  EXPECT_EQ(back.instance.controller_capacity, stored.instance.controller_capacity);
  EXPECT_EQ(back.instance.cs_delay, stored.instance.cs_delay);
  EXPECT_EQ(back.instance.cc_delay, stored.instance.cc_delay);
  EXPECT_EQ(back.instance.byzantine, stored.instance.byzantine);
  EXPECT_EQ(back.instance.fixed_leader, stored.instance.fixed_leader);
  EXPECT_DOUBLE_EQ(back.instance.max_cs_delay, stored.instance.max_cs_delay);
  EXPECT_DOUBLE_EQ(back.instance.max_cc_delay, stored.instance.max_cc_delay);
  ASSERT_TRUE(back.tcr_optimum);
  EXPECT_DOUBLE_EQ(*back.tcr_optimum, 4.0);
  ASSERT_TRUE(back.feasible);
  EXPECT_TRUE(*back.feasible);
}

TEST(InstanceIo, InfiniteDelayCapsRoundTripAsNull) {
  StoredInstance stored;
  stored.instance = CapInstance::uniform(2, 2, 1, 1.0, 10.0);
  const std::string json = instance_to_json(stored);
  EXPECT_NE(json.find("\"max_cs_delay\": null"), std::string::npos);
  const StoredInstance back = instance_from_json(json);
  EXPECT_EQ(back.instance.max_cs_delay, CapInstance::kNoLimit);
  EXPECT_EQ(back.instance.max_cc_delay, CapInstance::kNoLimit);
  EXPECT_FALSE(back.tcr_optimum);
  EXPECT_FALSE(back.feasible);
}

TEST(InstanceIo, MalformedDocumentsThrow) {
  EXPECT_THROW((void)instance_from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)instance_from_json("[]"), std::runtime_error);
  EXPECT_THROW((void)instance_from_json("{\"num_switches\": 2}"), std::runtime_error);
}

TEST(InstanceIo, LoadedInstanceIsValidated) {
  // A dimensionally broken document must be rejected by validate(), not
  // handed to a solver.
  StoredInstance stored;
  stored.instance = CapInstance::uniform(3, 3, 1, 1.0, 10.0);
  std::string json = instance_to_json(stored);
  const std::string needle = "\"num_switches\": 3";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"num_switches\": 4");
  EXPECT_THROW((void)instance_from_json(json), std::invalid_argument);
}

}  // namespace
}  // namespace curb::opt
