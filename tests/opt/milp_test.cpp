#include "curb/opt/milp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace curb::opt {
namespace {

TEST(Milp, BinaryKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (as minimization of negatives).
  LpProblem p;
  const int a = p.add_variable(-10.0, 0.0, 1.0);
  const int b = p.add_variable(-6.0, 0.0, 1.0);
  const int c = p.add_variable(-4.0, 0.0, 1.0);
  p.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, LpProblem::Sense::kLe, 2.0);
  MilpSolver solver{p};
  solver.set_binary({a, b, c});
  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -16.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.values[0], 1.0);
  EXPECT_DOUBLE_EQ(s.values[1], 1.0);
  EXPECT_DOUBLE_EQ(s.values[2], 0.0);
}

TEST(Milp, FractionalRelaxationForcedIntegral) {
  // min x+y s.t. 2x + 2y >= 3, binaries. LP gives 1.5; MILP needs 2.
  LpProblem p;
  const int x = p.add_variable(1.0, 0.0, 1.0);
  const int y = p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, LpProblem::Sense::kGe, 3.0);
  MilpSolver solver{p};
  solver.set_binary({x, y});
  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(Milp, SetCover) {
  // Universe {0..4}; sets: {0,1,2}, {2,3}, {3,4}, {0,4}; optimal cover = 2.
  LpProblem p;
  std::vector<int> sets;
  for (int j = 0; j < 4; ++j) sets.push_back(p.add_variable(1.0, 0.0, 1.0));
  const int membership[4][5] = {
      {1, 1, 1, 0, 0}, {0, 0, 1, 1, 0}, {0, 0, 0, 1, 1}, {1, 0, 0, 0, 1}};
  for (int e = 0; e < 5; ++e) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < 4; ++j) {
      if (membership[j][e]) terms.push_back({sets[static_cast<std::size_t>(j)], 1.0});
    }
    p.add_constraint(std::move(terms), LpProblem::Sense::kGe, 1.0);
  }
  MilpSolver solver{p};
  solver.set_binary(sets);
  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(Milp, InfeasibleDetected) {
  LpProblem p;
  const int x = p.add_variable(1.0, 0.0, 1.0);
  const int y = p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, LpProblem::Sense::kGe, 3.0);  // max is 2
  MilpSolver solver{p};
  solver.set_binary({x, y});
  EXPECT_EQ(solver.solve().status, LpStatus::kInfeasible);
}

TEST(Milp, IncumbentPrunesEqualSolutions) {
  // Optimal objective is 2; with incumbent 2 the solver must NOT return a
  // solution (nothing strictly better exists).
  LpProblem p;
  const int x = p.add_variable(1.0, 0.0, 1.0);
  const int y = p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}}, LpProblem::Sense::kGe, 1.0);
  p.add_constraint({{y, 1.0}}, LpProblem::Sense::kGe, 1.0);
  MilpSolver solver{p};
  solver.set_binary({x, y});
  MilpOptions opts;
  opts.incumbent_objective = 2.0;
  EXPECT_EQ(solver.solve(opts).status, LpStatus::kInfeasible);
  opts.incumbent_objective = 3.0;
  EXPECT_EQ(solver.solve(opts).status, LpStatus::kOptimal);
}

TEST(Milp, MixedIntegerContinuous) {
  // min -x - 0.5y, x binary, y continuous <= 1.5, x + y <= 2.
  LpProblem p;
  const int x = p.add_variable(-1.0, 0.0, 1.0);
  const int y = p.add_variable(-0.5, 0.0, 1.5);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, LpProblem::Sense::kLe, 2.0);
  MilpSolver solver{p};
  solver.set_binary(x);
  const MilpSolution s = solver.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.values[0], 1.0);
  EXPECT_NEAR(s.values[1], 1.0, 1e-6);
  EXPECT_NEAR(s.objective, -1.5, 1e-6);
}

TEST(Milp, RejectsNonBinaryBounds) {
  LpProblem p;
  const int x = p.add_variable(1.0, 0.0, 5.0);
  MilpSolver solver{p};
  EXPECT_THROW(solver.set_binary(x), std::invalid_argument);
  EXPECT_THROW(solver.set_binary(42), std::out_of_range);
}

TEST(Milp, NodeLimitReported) {
  // A 12-variable parity-ish problem explored with node limit 1.
  LpProblem p;
  std::vector<int> vars;
  for (int j = 0; j < 12; ++j) vars.push_back(p.add_variable(1.0, 0.0, 1.0));
  std::vector<std::pair<int, double>> all;
  for (const int v : vars) all.push_back({v, 2.0});
  p.add_constraint(std::move(all), LpProblem::Sense::kGe, 11.0);
  MilpSolver solver{p};
  solver.set_binary(vars);
  MilpOptions opts;
  opts.max_nodes = 1;
  const MilpSolution s = solver.solve(opts);
  EXPECT_TRUE(s.hit_node_limit);
}

/// 30 elements, 12 sets with deterministic structure. Depth-first search
/// reaches the optimal cover (4 sets) before it has explored enough of the
/// tree to prove it.
MilpSolver larger_cover() {
  LpProblem p;
  std::vector<int> sets;
  for (int j = 0; j < 12; ++j) sets.push_back(p.add_variable(1.0, 0.0, 1.0));
  for (int e = 0; e < 30; ++e) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < 12; ++j) {
      if ((e * 7 + j * 3) % 5 == 0 || (e + j) % 4 == 0) {
        terms.push_back({sets[static_cast<std::size_t>(j)], 1.0});
      }
    }
    p.add_constraint(std::move(terms), LpProblem::Sense::kGe, 1.0);
  }
  MilpSolver solver{std::move(p)};
  solver.set_binary(sets);
  return solver;
}

TEST(Milp, LargerCoveringProblemOptimal) {
  // Verify optimality by checking the solution is a valid cover of integral
  // values at the known optimum.
  const MilpSolution s = larger_cover().solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
  for (const double v : s.values) {
    EXPECT_TRUE(std::abs(v) < 1e-9 || std::abs(v - 1.0) < 1e-9);
  }
}

TEST(Milp, LowerBoundAtOptimumStopsAtFirstOptimalIncumbent) {
  MilpSolver solver = larger_cover();
  const MilpSolution full = solver.solve();
  ASSERT_EQ(full.status, LpStatus::kOptimal);
  MilpOptions opts;
  opts.lower_bound = full.objective;
  const MilpSolution bounded = solver.solve(opts);
  ASSERT_EQ(bounded.status, LpStatus::kOptimal);
  EXPECT_LT(bounded.nodes_explored, full.nodes_explored);
  EXPECT_LT(bounded.lp_iterations, full.lp_iterations);
  EXPECT_FALSE(bounded.hit_node_limit || bounded.hit_time_limit);
  EXPECT_EQ(bounded.objective, full.objective);
  EXPECT_EQ(bounded.values, full.values);
}

TEST(Milp, LowerBoundBelowOptimumChangesNothing) {
  MilpSolver solver = larger_cover();
  const MilpSolution full = solver.solve();
  ASSERT_EQ(full.status, LpStatus::kOptimal);
  MilpOptions opts;
  opts.lower_bound = full.objective - 1.0;
  const MilpSolution bounded = solver.solve(opts);
  ASSERT_EQ(bounded.status, LpStatus::kOptimal);
  EXPECT_EQ(bounded.nodes_explored, full.nodes_explored);
  EXPECT_EQ(bounded.lp_iterations, full.lp_iterations);
  EXPECT_EQ(bounded.objective, full.objective);
  EXPECT_EQ(bounded.values, full.values);
}

TEST(Milp, WarmIncumbentAtLowerBoundExploresNoNode) {
  // The warm incumbent is already optimal by the bound: the search returns
  // at once, within its limits, telling the caller to keep its solution.
  MilpOptions opts;
  opts.incumbent_objective = 4.0;
  opts.lower_bound = 4.0;
  const MilpSolution s = larger_cover().solve(opts);
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
  EXPECT_EQ(s.nodes_explored, 0u);
  EXPECT_FALSE(s.hit_node_limit || s.hit_time_limit);
}

}  // namespace
}  // namespace curb::opt
