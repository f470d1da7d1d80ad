// Differential solver harness. The dense backend, the one exact OP() path,
// is held to an exhaustive oracle on instances small enough to enumerate;
// the heuristic is held to dense on a seeded random sweep, where it must
// stay feasible and within a bounded gap. A failing instance is dumped as
// JSON into CURB_FUZZ_DIR (default fuzz-failures/) so CI can upload it and
// `curb-capgen --in <file> --solve` can replay it.

#include "curb/opt/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "curb/opt/instance_gen.hpp"
#include "curb/opt/instance_io.hpp"
#include "curb/sim/rng.hpp"

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
    const CapResult heur = solve_cap_with(CapSolverBackend::kHeuristic, inst);

    // Every returned assignment must satisfy every constraint.
    if (dense.feasible) {
      EXPECT_TRUE(dense.assignment.feasible_for(inst));
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
    const CapResult heur = solve_cap_with(CapSolverBackend::kHeuristic, reass,
                                          CapObjective::kLeastMovement, prev);

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
       {CapSolverBackend::kDense, CapSolverBackend::kHeuristic}) {
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

// --- Exhaustive oracle ---------------------------------------------------
// Ground truth for the dense backend that shares no code with solve_cap: no
// LP, no warm start, no counting bound, no branch-and-bound. It tries every
// assignment of an instance small enough to enumerate and keeps the least
// cap_objective_value among those Assignment::feasible_for accepts.

/// Every subset of `controllers` controllers, as a bitmask, with exactly
/// `size` members, or (unless `exact`) more.
[[nodiscard]] std::vector<std::uint32_t> groups_of_size(std::size_t controllers, int size,
                                                       bool exact) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t mask = 0; mask < (1U << controllers); ++mask) {
    const int members = std::popcount(mask);
    if (members == size || (!exact && members > size)) out.push_back(mask);
  }
  return out;
}

class ExhaustiveOracle {
 public:
  /// A kTrivial search tries only groups of exactly B_i: dropping a surplus
  /// non-leader link from a feasible group keeps every constraint and never
  /// adds a controller, so some optimum has only exact-size groups. The LCR
  /// objective can pay for a surplus link (one `previous` already had), so a
  /// kLeastMovement search tries every group of at least B_i.
  ExhaustiveOracle(const CapInstance& inst, CapObjective objective,
                   const Assignment* previous)
      : inst_{inst},
        objective_{objective},
        previous_{previous},
        current_{inst.num_switches, inst.num_controllers},
        load_(inst.num_switches + 1, std::vector<double>(inst.num_controllers, 0.0)) {
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      candidates_.push_back(groups_of_size(inst.num_controllers, inst.group_size[i],
                                           objective == CapObjective::kTrivial));
    }
  }

  /// The least objective of any feasible assignment; nullopt if none is.
  [[nodiscard]] std::optional<double> minimum() {
    place(0);
    return best_;
  }

 private:
  /// Tries every candidate group for switch `sw` on top of the groups
  /// already placed for switches [0, sw).
  void place(std::size_t sw) {
    if (sw == inst_.num_switches) {
      const double value = cap_objective_value(current_, objective_, previous_);
      if ((!best_ || value < *best_) && current_.feasible_for(inst_)) best_ = value;
      return;
    }
    for (const std::uint32_t mask : candidates_[sw]) {
      // Loads only grow as switches are placed, so a controller already over
      // capacity rules out every completion. The 1e-6 slack is looser than
      // feasible_for's, so this never drops an assignment it would accept.
      std::vector<double>& load = load_[sw + 1];
      load = load_[sw];
      bool fits = true;
      for (std::size_t j = 0; j < inst_.num_controllers; ++j) {
        const bool member = ((mask >> j) & 1U) != 0;
        current_.set(sw, j, member);
        if (member) load[j] += inst_.switch_load[sw];
        fits = fits && load[j] <= inst_.controller_capacity[j] + 1e-6;
      }
      if (fits) place(sw + 1);
    }
  }

  const CapInstance& inst_;
  CapObjective objective_;
  const Assignment* previous_;
  std::vector<std::vector<std::uint32_t>> candidates_;
  Assignment current_;
  /// load_[k][j]: controller j's load from the groups of switches [0, k).
  std::vector<std::vector<double>> load_;
  std::optional<double> best_;
};

struct OracleCase {
  CapInstance inst;
  std::string name;
  std::uint64_t seed = 0;  // also seeds the LCR `previous`
};

/// Instances small enough to enumerate, each constraint family on its own
/// plus tight and starved capacity: 4 switches with B_i = 1 on 4-6
/// controllers, and 3 switches with B_i = 4 on 5-6 (4 would admit one group).
[[nodiscard]] std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> out;
  for (const std::uint64_t round : {1ULL, 2ULL}) {
    for (const int f : {0, 1}) {
      for (const std::size_t controllers : {4U, 5U, 6U}) {
        if (f == 1 && controllers == 4) continue;
        GenProfile base;
        base.switches = f == 0 ? 4 : 3;
        base.controllers = controllers;
        base.faults_tolerated = f;
        base.capacity_slack = 2.0;
        base.seed = round * 100 + controllers * 10 + static_cast<std::uint64_t>(f);
        const std::string size = "s" + std::to_string(base.switches) + "-c" +
                                 std::to_string(controllers) + "-f" + std::to_string(f) +
                                 "-seed" + std::to_string(base.seed);
        const auto add = [&](const GenProfile& p, const std::string& variant) {
          out.push_back({generate_instance(p), size + variant, p.seed});
        };
        add(base, "");
        GenProfile p = base;
        if (f == 0) {
          // The generator's delay cap keeps B_i + 2 eligible controllers per
          // switch, so it only binds here.
          p.cs_delay_cap = true;
          add(p, "-dcs");
        } else {
          // C2C pairs only bind groups of two or more. The generator's cap
          // rarely binds on so few controllers; half the square's side does.
          p.cc_delay_cap = true;
          add(p, "-dcc");
          out.back().inst.max_cc_delay = 50.0;
        }
        p = base;
        p.byzantine_frac = 0.34;
        add(p, "-byz");
        p = base;
        p.fixed_leader_frac = 0.5;
        add(p, "-lead");
        p = base;
        p.capacity_slack = f == 0 ? 1.5 : 1.2;
        add(p, "-tight");
        p = base;
        p.capacity_slack = 0.6;
        add(p, "-starved");
      }
    }
  }
  return out;
}

/// A seeded random previous assignment for the LCR objective: any link may
/// be present, including ones the instance now forbids.
[[nodiscard]] Assignment random_assignment(const CapInstance& inst, std::uint64_t seed) {
  sim::Rng rng{seed};
  Assignment out{inst.num_switches, inst.num_controllers};
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    for (std::size_t j = 0; j < inst.num_controllers; ++j) out.set(i, j, rng.next_bool());
  }
  return out;
}

TEST(SolverOracle, DenseMatchesExhaustiveSearch) {
  std::size_t solves = 0;
  std::size_t searched = 0;  // solves that explored a branch-and-bound node
  std::size_t feasible = 0;
  for (const auto& [inst, name, seed] : oracle_cases()) {
    const Assignment previous = random_assignment(inst, seed);
    for (const CapObjective objective :
         {CapObjective::kTrivial, CapObjective::kLeastMovement}) {
      const bool lcr = objective == CapObjective::kLeastMovement;
      const std::string label = (lcr ? "oracle-lcr-" : "oracle-tcr-") + name;
      SCOPED_TRACE(label);
      const Assignment* prev = lcr ? &previous : nullptr;
      const std::optional<double> truth = ExhaustiveOracle{inst, objective, prev}.minimum();
      const CapResult dense = solve_cap_with(CapSolverBackend::kDense, inst, objective, prev);
      ++solves;
      searched += dense.stats.milp_nodes > 0 ? 1 : 0;
      EXPECT_TRUE(dense.stats.proven);
      if (dense.feasible != truth.has_value()) {
        dump_failure(inst, label);
        ADD_FAILURE() << "dense feasible=" << dense.feasible
                      << " but exhaustive search feasible=" << truth.has_value();
        continue;
      }
      if (!truth) continue;
      ++feasible;
      EXPECT_TRUE(dense.assignment.feasible_for(inst));
      EXPECT_NEAR(cap_objective_value(dense.assignment, objective, prev), dense.objective,
                  1e-6);
      if (std::abs(dense.objective - *truth) > 1e-6) {
        dump_failure(inst, label);
        ADD_FAILURE() << "dense objective=" << dense.objective
                      << " != exhaustive minimum=" << *truth;
      }
    }
  }
  // The oracle only has teeth where branch-and-bound does the work: a solve
  // that ends at the warm start never reaches the LP.
  EXPECT_GE(solves, 100U);
  EXPECT_GE(3 * searched, 2 * solves) << searched << " of " << solves;
  EXPECT_GE(2 * feasible, solves) << feasible << " of " << solves;
}

}  // namespace
}  // namespace curb::opt
