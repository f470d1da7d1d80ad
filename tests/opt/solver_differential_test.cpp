// Differential solver-backend harness: every backend solves the same seeded
// random instances and the results are cross-checked — the exact backends
// must agree with each other exactly, and the heuristic must stay feasible
// and within a bounded gap. A failing instance is dumped as JSON into
// CURB_FUZZ_DIR (default fuzz-failures/) so CI can upload it and
// `curb-capgen --in <file> --solve` can replay it.

#include "curb/opt/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "curb/opt/instance_gen.hpp"
#include "curb/opt/instance_io.hpp"
#include "curb/opt/sparse_lp.hpp"

namespace curb::opt {
namespace {

void dump_failure(const CapInstance& inst, const std::string& name) {
  const char* env = std::getenv("CURB_FUZZ_DIR");
  const std::string dir = env != nullptr ? env : "fuzz-failures";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  StoredInstance stored;
  stored.name = name;
  stored.instance = inst;
  if (save_instance(stored, dir + "/" + name + ".json")) {
    std::fprintf(stderr, "dumped failing instance to %s/%s.json\n", dir.c_str(),
                 name.c_str());
  }
}

[[nodiscard]] std::string profile_name(const GenProfile& p) {
  std::string name = "s" + std::to_string(p.switches) + "-c" +
                     std::to_string(p.controllers) + "-seed" + std::to_string(p.seed);
  name += "-slack" + std::to_string(static_cast<int>(p.capacity_slack * 100));
  if (p.cs_delay_cap) name += "-dcs";
  if (p.cc_delay_cap) name += "-dcc";
  if (p.byzantine_frac > 0) name += "-byz";
  if (p.fixed_leader_frac > 0) name += "-lead";
  return name;
}

/// The sweep: sizes around and past the unit-test sweet spot, tight and
/// loose capacities, delay caps, byzantine exclusions, fixed leaders, and
/// deliberately capacity-starved (usually infeasible) profiles.
[[nodiscard]] std::vector<GenProfile> sweep_profiles() {
  std::vector<GenProfile> out;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    for (const double slack : {1.15, 2.0}) {
      for (const bool cs_cap : {false, true}) {
        for (const double byz : {0.0, 0.2}) {
          GenProfile p;
          p.switches = seed == 1 ? 10 : 18;
          p.controllers = seed == 1 ? 6 : 8;
          p.capacity_slack = slack;
          p.cs_delay_cap = cs_cap;
          p.byzantine_frac = byz;
          p.fixed_leader_frac = seed == 2 ? 0.3 : 0.0;
          p.seed = seed * 1000 + static_cast<std::uint64_t>(slack * 100) +
                   (cs_cap ? 7 : 0) + (byz > 0 ? 31 : 0);
          out.push_back(p);
        }
      }
    }
  }
  // The quadratic C2C constraint family (kept small: pair-exclusion rows
  // multiply fast).
  for (const std::uint64_t seed : {5ULL, 6ULL}) {
    GenProfile p;
    p.switches = 8;
    p.controllers = 6;
    p.cs_delay_cap = true;
    p.cc_delay_cap = true;
    p.seed = seed;
    out.push_back(p);
  }
  // Capacity-starved: usually infeasible — the backends must agree on that
  // verdict too (and the heuristic must never fabricate feasibility).
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    GenProfile p;
    p.switches = 12;
    p.controllers = 5;
    p.capacity_slack = 0.45;
    p.seed = seed;
    out.push_back(p);
  }
  return out;
}

TEST(SolverDifferential, BackendsAgreeOnTcr) {
  for (const GenProfile& profile : sweep_profiles()) {
    const CapInstance inst = generate_instance(profile);
    const std::string name = profile_name(profile);
    SCOPED_TRACE(name);

    const CapResult dense = solve_cap_with(CapSolverBackend::kDense, inst);
    const CapResult sparse = solve_cap_with(CapSolverBackend::kSparse, inst);
    const CapResult heur = solve_cap_with(CapSolverBackend::kHeuristic, inst);

    // The exact backends must agree on feasibility and on the optimum.
    if (dense.feasible != sparse.feasible) {
      dump_failure(inst, "tcr-feas-" + name);
      FAIL() << "dense feasible=" << dense.feasible
             << " but sparse feasible=" << sparse.feasible;
    }
    if (dense.feasible && std::abs(dense.objective - sparse.objective) > 1e-6) {
      dump_failure(inst, "tcr-obj-" + name);
      FAIL() << "dense objective=" << dense.objective
             << " != sparse objective=" << sparse.objective;
    }

    // Every returned assignment must satisfy every constraint.
    if (dense.feasible) {
      EXPECT_TRUE(dense.assignment.feasible_for(inst));
    }
    if (sparse.feasible) {
      EXPECT_TRUE(sparse.assignment.feasible_for(inst));
    }
    if (heur.feasible) {
      EXPECT_TRUE(heur.assignment.feasible_for(inst));
    }

    // The heuristic can miss feasible instances but must never claim a
    // feasible solution to an infeasible one...
    if (heur.feasible && !dense.feasible) {
      dump_failure(inst, "tcr-heur-feas-" + name);
      FAIL() << "heuristic found a solution where the exact solver proved "
                "infeasibility";
    }
    // ...and when both succeed the gap must stay bounded.
    if (heur.feasible && dense.feasible) {
      EXPECT_GE(heur.objective, dense.objective - 1e-9);
      if (heur.objective > 2.0 * dense.objective + 2.0) {
        dump_failure(inst, "tcr-gap-" + name);
        FAIL() << "heuristic objective " << heur.objective
               << " exceeds bound vs optimum " << dense.objective;
      }
    }
    // On loose-capacity feasible instances the heuristic must not give up.
    if (dense.feasible && profile.capacity_slack >= 2.0) {
      EXPECT_TRUE(heur.feasible) << "heuristic gave up on an easy instance";
    }
  }
}

/// `inst` plus one controller that is eligible for no switch but could
/// absorb the whole load. It can never be used, so the optimum is the same;
/// but it satisfies the capacity part of usage_lower_bound() alone, so an
/// exact solve of the copy can end early only at max_i B_i, and its optimum
/// does not depend on the capacity part being right.
[[nodiscard]] CapInstance with_unusable_controller(const CapInstance& inst) {
  CapInstance out = inst;
  double load = 0.0;
  double farthest = 0.0;
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    load += inst.switch_load[i] * static_cast<double>(inst.group_size[i]);
    for (const double d : inst.cs_delay[i]) farthest = std::max(farthest, d);
  }
  // A finite delay cap that every real link already meets excludes the new
  // controller without excluding anything else.
  if (out.max_cs_delay == CapInstance::kNoLimit) out.max_cs_delay = farthest;
  ++out.num_controllers;
  out.controller_capacity.push_back(load);
  for (auto& row : out.cs_delay) row.push_back(out.max_cs_delay + 1.0);
  for (auto& row : out.cc_delay) row.push_back(0.0);
  if (!out.cc_delay.empty()) out.cc_delay.emplace_back(out.num_controllers, 0.0);
  if (!out.byzantine.empty()) out.byzantine.push_back(false);
  return out;
}

TEST(SolverDifferential, UsageLowerBoundNeverExceedsOptimum) {
  // The sweep includes byzantine exclusions, delay caps, fixed leaders and
  // capacity-starved instances; the counting bound must hold on all of them
  // (it ignores every constraint but group size and capacity, so it can
  // only be loose, never above the optimum).
  for (const GenProfile& profile : sweep_profiles()) {
    const CapInstance inst = generate_instance(profile);
    SCOPED_TRACE(profile_name(profile));
    const CapInstance padded = with_unusable_controller(inst);
    ASSERT_EQ(usage_lower_bound(padded),
              std::optional<double>{static_cast<double>(
                  *std::max_element(inst.group_size.begin(), inst.group_size.end()))});
    const CapResult reference = solve_cap_with(CapSolverBackend::kDense, padded);
    const CapResult dense = solve_cap_with(CapSolverBackend::kDense, inst);
    ASSERT_EQ(dense.feasible, reference.feasible);
    if (!dense.feasible) continue;
    EXPECT_TRUE(reference.stats.proven);
    EXPECT_NEAR(dense.objective, reference.objective, 1e-6);
    const std::optional<double> bound = usage_lower_bound(inst);
    ASSERT_TRUE(bound.has_value());
    EXPECT_LE(*bound, reference.objective + 1e-9);
  }
}

TEST(SolverDifferential, BackendsAgreeOnLcrReassignment) {
  for (const GenProfile& base : sweep_profiles()) {
    if (base.capacity_slack < 1.0) continue;  // need a feasible starting point
    GenProfile profile = base;
    profile.byzantine_frac = 0.0;  // the reassignment will add the exclusions
    const CapInstance inst = generate_instance(profile);
    const std::string name = profile_name(profile);
    SCOPED_TRACE(name);

    const CapResult start = solve_cap_with(CapSolverBackend::kDense, inst);
    if (!start.feasible) continue;

    // RE-ASS: one controller in the current assignment turns byzantine.
    CapInstance reass = inst;
    reass.byzantine.assign(inst.num_controllers, false);
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (start.assignment.controller_used(j)) {
        reass.byzantine[j] = true;
        break;
      }
    }
    // A fixed leader that just went byzantine would make the instance
    // trivially infeasible; drop those pins.
    for (auto& leader : reass.fixed_leader) {
      if (leader && reass.byzantine[static_cast<std::size_t>(*leader)]) {
        leader = std::nullopt;
      }
    }

    const Assignment* prev = &start.assignment;
    const CapResult dense =
        solve_cap_with(CapSolverBackend::kDense, reass, CapObjective::kLeastMovement, prev);
    const CapResult sparse = solve_cap_with(CapSolverBackend::kSparse, reass,
                                            CapObjective::kLeastMovement, prev);
    const CapResult heur = solve_cap_with(CapSolverBackend::kHeuristic, reass,
                                          CapObjective::kLeastMovement, prev);

    if (dense.feasible != sparse.feasible) {
      dump_failure(reass, "lcr-feas-" + name);
      FAIL() << "LCR: dense feasible=" << dense.feasible
             << " but sparse feasible=" << sparse.feasible;
    }
    if (dense.feasible && std::abs(dense.objective - sparse.objective) > 1e-6) {
      dump_failure(reass, "lcr-obj-" + name);
      FAIL() << "LCR: dense objective=" << dense.objective
             << " != sparse objective=" << sparse.objective;
    }
    if (dense.feasible) {
      EXPECT_TRUE(dense.assignment.feasible_for(reass));
      // The MILP objective and the direct recount must agree.
      EXPECT_NEAR(dense.objective,
                  cap_objective_value(dense.assignment, CapObjective::kLeastMovement, prev),
                  1e-6);
    }
    if (heur.feasible) {
      EXPECT_TRUE(heur.assignment.feasible_for(reass));
      if (dense.feasible) {
        // The optimum lower-bounds any feasible LCR value.
        EXPECT_GE(heur.objective, dense.objective - 1e-9);
      } else {
        dump_failure(reass, "lcr-heur-feas-" + name);
        FAIL() << "LCR: heuristic found a solution on an infeasible instance";
      }
    }
  }
}

TEST(SolverDifferential, EveryBackendIsDeterministic) {
  GenProfile profile;
  profile.switches = 16;
  profile.controllers = 8;
  profile.cs_delay_cap = true;
  profile.byzantine_frac = 0.2;
  profile.fixed_leader_frac = 0.2;
  profile.seed = 77;
  const CapInstance a = generate_instance(profile);
  const CapInstance b = generate_instance(profile);
  // The generator itself must be bit-deterministic.
  ASSERT_EQ(a.cs_delay, b.cs_delay);
  ASSERT_EQ(a.controller_capacity, b.controller_capacity);

  for (const CapSolverBackend backend :
       {CapSolverBackend::kDense, CapSolverBackend::kSparse,
        CapSolverBackend::kHeuristic}) {
    SCOPED_TRACE(to_string(backend));
    const CapResult first = solve_cap_with(backend, a);
    const CapResult second = solve_cap_with(backend, b);
    ASSERT_EQ(first.feasible, second.feasible);
    if (first.feasible) {
      EXPECT_EQ(first.assignment, second.assignment);
      EXPECT_DOUBLE_EQ(first.objective, second.objective);
    }
  }
}

TEST(SolverDifferential, PersistentSparseSolverWarmStartsStayExact) {
  GenProfile profile;
  profile.switches = 20;
  profile.controllers = 8;
  profile.cs_delay_cap = true;
  profile.seed = 41;
  const CapInstance inst = generate_instance(profile);

  CapSolverOptions options;
  auto solver = make_cap_solver(CapSolverBackend::kSparse, options);
  const CapResult cold = solver->solve(inst);
  ASSERT_TRUE(cold.feasible);
  EXPECT_EQ(cold.stats.backend, "sparse");

  // Successive byzantine exclusions, each warm-started from the last result
  // via the solver's cached assignment. Every solve must still match the
  // from-scratch dense optimum.
  CapInstance current = inst;
  current.byzantine.assign(inst.num_controllers, false);
  std::size_t flagged = 0;
  for (std::size_t j = 0; j < inst.num_controllers && flagged < 2; ++j) {
    if (!cold.assignment.controller_used(j)) continue;
    current.byzantine[j] = true;
    ++flagged;
    const CapResult warm = solver->solve(current);
    const CapResult reference = solve_cap_with(CapSolverBackend::kDense, current);
    ASSERT_EQ(warm.feasible, reference.feasible);
    if (warm.feasible) {
      EXPECT_TRUE(warm.assignment.feasible_for(current));
      EXPECT_NEAR(warm.objective, reference.objective, 1e-6);
    }
  }
}

TEST(SolverDifferential, SparseLpMatchesDenseOnCapRelaxations) {
  // LP-level differential: the raw relaxation objective (before any
  // branching) must agree between the dense tableau and the sparse revised
  // simplex on every sweep instance. This isolates simplex bugs from B&B
  // bugs when the CAP-level differential fails.
  for (const GenProfile& profile : sweep_profiles()) {
    const CapInstance inst = generate_instance(profile);
    SCOPED_TRACE(profile_name(profile));

    LpProblem lp;
    std::vector<std::vector<int>> a_var(inst.num_switches,
                                        std::vector<int>(inst.num_controllers, -1));
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      for (std::size_t j = 0; j < inst.num_controllers; ++j) {
        const bool byz = !inst.byzantine.empty() && inst.byzantine[j];
        const bool far = inst.max_cs_delay != CapInstance::kNoLimit &&
                         inst.cs_delay[i][j] > inst.max_cs_delay;
        if (byz || far) continue;
        a_var[i][j] = lp.add_variable(static_cast<double>(i % 3) * 0.25 + 0.5, 0.0, 1.0);
      }
    }
    bool feasible_candidate = true;
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t j = 0; j < inst.num_controllers; ++j) {
        if (a_var[i][j] >= 0) terms.push_back({a_var[i][j], 1.0});
      }
      if (terms.size() < static_cast<std::size_t>(inst.group_size[i])) {
        feasible_candidate = false;
        break;
      }
      lp.add_constraint(std::move(terms), LpProblem::Sense::kGe,
                        static_cast<double>(inst.group_size[i]));
    }
    if (!feasible_candidate) continue;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t i = 0; i < inst.num_switches; ++i) {
        if (a_var[i][j] >= 0) terms.push_back({a_var[i][j], inst.switch_load[i]});
      }
      if (!terms.empty()) {
        lp.add_constraint(std::move(terms), LpProblem::Sense::kLe,
                          inst.controller_capacity[j]);
      }
    }

    const LpSolution dense = solve_lp(lp);
    const LpSolution sparse = solve_lp_sparse(lp);
    ASSERT_EQ(dense.status, sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6);
    }
  }
}

}  // namespace
}  // namespace curb::opt
