#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "curb/opt/milp.hpp"

namespace curb::opt {

/// Instance of the paper's Controller Assignment Problem (CAP): which
/// controllers govern which switches. Delays are in milliseconds (the unit
/// is irrelevant to the solver; thresholds must match).
struct CapInstance {
  std::size_t num_switches = 0;
  std::size_t num_controllers = 0;

  /// B_i: minimum controller-group size per switch (3f+1 in the paper).
  std::vector<int> group_size;
  /// Q_i: message load each switch generates per unit time.
  std::vector<double> switch_load;
  /// C_j: maximum aggregate load a controller can absorb.
  std::vector<double> controller_capacity;
  /// d_ij: one-way controller-to-switch delay, indexed [switch][controller].
  std::vector<std::vector<double>> cs_delay;
  /// d_jj': one-way controller-to-controller delay, indexed [j][j'].
  std::vector<std::vector<double>> cc_delay;

  static constexpr double kNoLimit = std::numeric_limits<double>::infinity();
  /// D_c,s — constraint [C1.3]/[C2.3]; kNoLimit disables.
  double max_cs_delay = kNoLimit;
  /// D_c,c — constraint [C1.4]/[C2.4]; kNoLimit disables (the paper's
  /// experiments run with it disabled by default because it is quadratic).
  double max_cc_delay = kNoLimit;

  /// [C2.5]: controllers flagged byzantine are excluded from the network.
  std::vector<bool> byzantine;
  /// [C2.6]: per-switch fixed leader (keeps leader links stable during
  /// reassignment). Empty or nullopt = unconstrained.
  std::vector<std::optional<int>> fixed_leader;

  /// Uniform-instance convenience constructor.
  [[nodiscard]] static CapInstance uniform(std::size_t switches, std::size_t controllers,
                                           int group_size, double switch_load,
                                           double controller_capacity);
  /// Throws std::invalid_argument when dimensions are inconsistent.
  void validate() const;
};

/// A concrete switch->controller-group assignment (the A_ij matrix).
class Assignment {
 public:
  Assignment() = default;
  Assignment(std::size_t switches, std::size_t controllers)
      : assign_(switches, std::vector<bool>(controllers, false)) {}

  [[nodiscard]] std::size_t num_switches() const { return assign_.size(); }
  [[nodiscard]] std::size_t num_controllers() const {
    return assign_.empty() ? 0 : assign_[0].size();
  }
  [[nodiscard]] bool assigned(std::size_t sw, std::size_t ctl) const {
    return assign_[sw][ctl];
  }
  void set(std::size_t sw, std::size_t ctl, bool value) { assign_[sw][ctl] = value; }

  /// Controllers in switch `sw`'s group, ascending.
  [[nodiscard]] std::vector<std::size_t> group_of(std::size_t sw) const;
  /// Switches governed by controller `ctl`, ascending.
  [[nodiscard]] std::vector<std::size_t> switches_of(std::size_t ctl) const;
  /// Number of controllers with at least one switch.
  [[nodiscard]] std::size_t controllers_used() const;
  /// Total number of switch-controller links.
  [[nodiscard]] std::size_t total_links() const;
  [[nodiscard]] bool controller_used(std::size_t ctl) const;

  /// Percentage of dynamic links between two assignments, the paper's PDL:
  ///   (removed + added) / (links_before + added).
  [[nodiscard]] static double pdl(const Assignment& before, const Assignment& after);

  /// True when `this` satisfies all constraints of `instance`.
  [[nodiscard]] bool feasible_for(const CapInstance& instance) const;

  bool operator==(const Assignment&) const = default;

 private:
  std::vector<std::vector<bool>> assign_;
};

/// Which OP() objective to use for (re)assignment — paper Section III-C:
///  - kTrivial (TCR):       minimize controller usage [O2].
///  - kLeastMovement (LCR): minimize usage + changed links [O3]; requires
///    a previous assignment.
enum class CapObjective { kTrivial, kLeastMovement };

struct CapSolveStats {
  /// Which backend produced the result ("dense", "sparse", "heuristic").
  std::string backend = "dense";
  std::size_t milp_nodes = 0;
  std::size_t lp_iterations = 0;
  /// B&B nodes whose LP relaxation resumed from the cached parent basis
  /// (sparse backend only).
  std::size_t lp_warm_hits = 0;
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  double wall_time_ms = 0.0;
  bool used_greedy_fallback = false;
  /// True when branch-and-bound ended within its limits, so the result is a
  /// proven optimum (or a proven infeasibility). It ends either by
  /// exhausting the tree or, for kTrivial, as soon as the incumbent reaches
  /// usage_lower_bound(): nothing can use fewer controllers than that. False
  /// for the heuristic backend and for limit-truncated exact searches, whose
  /// answer is only the best known. A fallback result can still be proven:
  /// a warm incumbent that meets the bound, or that the exhausted tree never
  /// beat, is optimal.
  bool proven = false;
};

struct CapResult {
  bool feasible = false;
  Assignment assignment;
  double objective = 0.0;
  CapSolveStats stats;
};

/// Objective value an assignment scores under the paper's OP() objectives:
/// controllers used [O2], plus — for kLeastMovement — the number of links
/// changed versus `previous` [O3].
[[nodiscard]] double cap_objective_value(const Assignment& assignment,
                                         CapObjective objective,
                                         const Assignment* previous = nullptr);

/// Exact OP() solver: builds the MILP (with the standard linearisations of
/// the quadratic C2C constraint and of the LCR |A - a| objective) and solves
/// it by branch-and-bound, warm-started with the greedy heuristic.
/// `previous` is required for CapObjective::kLeastMovement.
///
/// `seed_incumbent_from_previous` additionally repairs `previous` into a
/// warm incumbent for kTrivial solves (reassignment is near-incremental by
/// construction, so the repair usually dominates the greedy). Off by
/// default: the incumbent influences which of several optimal assignments
/// branch-and-bound returns, and the dense baseline path must stay
/// byte-for-byte reproducible.
[[nodiscard]] CapResult solve_cap(const CapInstance& instance,
                                  CapObjective objective = CapObjective::kTrivial,
                                  const Assignment* previous = nullptr,
                                  const MilpOptions& milp_options = {},
                                  bool seed_incumbent_from_previous = false);

/// A proven lower bound on the controllers any feasible assignment uses
/// (the kTrivial optimum), by counting alone: switch i needs B_i distinct
/// controllers, so at least max_i B_i; and the used controllers' capacities
/// must absorb sum_i load_i * B_i, so at least as many as the largest
/// non-byzantine capacities take to reach that sum. nullopt when all of
/// them together fall short (the instance is infeasible).
[[nodiscard]] std::optional<double> usage_lower_bound(const CapInstance& instance);

/// Greedy construction heuristic (also the warm start and an ablation
/// baseline): repeatedly pick the controller that covers the most unmet
/// demand. May fail on feasible instances; never claims false feasibility.
[[nodiscard]] std::optional<Assignment> greedy_assign(const CapInstance& instance);

/// Repair heuristic for reassignment: keep the previous assignment where
/// still legal, strip byzantine controllers, top up groups below B_i.
[[nodiscard]] std::optional<Assignment> repair_assign(const CapInstance& instance,
                                                      const Assignment& previous);

}  // namespace curb::opt
