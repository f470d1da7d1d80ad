#include "curb/opt/cap.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "curb/prof/profiler.hpp"

namespace curb::opt {

CapInstance CapInstance::uniform(std::size_t switches, std::size_t controllers,
                                 int group_size_v, double switch_load_v,
                                 double controller_capacity_v) {
  CapInstance inst;
  inst.num_switches = switches;
  inst.num_controllers = controllers;
  inst.group_size.assign(switches, group_size_v);
  inst.switch_load.assign(switches, switch_load_v);
  inst.controller_capacity.assign(controllers, controller_capacity_v);
  inst.cs_delay.assign(switches, std::vector<double>(controllers, 0.0));
  inst.cc_delay.assign(controllers, std::vector<double>(controllers, 0.0));
  inst.byzantine.assign(controllers, false);
  inst.fixed_leader.assign(switches, std::nullopt);
  return inst;
}

void CapInstance::validate() const {
  auto fail = [](const std::string& what) { throw std::invalid_argument{what}; };
  auto fail_row = [&fail](const char* matrix, std::size_t row, std::size_t got,
                          std::size_t want) {
    fail("CapInstance: " + std::string{matrix} + " row " + std::to_string(row) +
         " has " + std::to_string(got) + " columns, expected " + std::to_string(want));
  };
  if (group_size.size() != num_switches) fail("CapInstance: group_size size");
  if (switch_load.size() != num_switches) fail("CapInstance: switch_load size");
  if (controller_capacity.size() != num_controllers) {
    fail("CapInstance: controller_capacity size");
  }
  if (cs_delay.size() != num_switches) fail("CapInstance: cs_delay rows");
  for (std::size_t i = 0; i < cs_delay.size(); ++i) {
    // Ragged rows would silently misindex in the solvers; reject every one,
    // not just those a currently-enabled constraint happens to read.
    if (cs_delay[i].size() != num_controllers) {
      fail_row("cs_delay", i, cs_delay[i].size(), num_controllers);
    }
  }
  // cc_delay may be omitted entirely when the C2C constraint is disabled,
  // but a present matrix must be square even then — callers (and a later
  // flip of max_cc_delay) index it as num_controllers x num_controllers.
  if (max_cc_delay != kNoLimit && cc_delay.size() != num_controllers) {
    fail("CapInstance: cc_delay rows");
  }
  if (!cc_delay.empty()) {
    if (cc_delay.size() != num_controllers) fail("CapInstance: cc_delay rows");
    for (std::size_t j = 0; j < cc_delay.size(); ++j) {
      if (cc_delay[j].size() != num_controllers) {
        fail_row("cc_delay", j, cc_delay[j].size(), num_controllers);
      }
    }
  }
  if (!byzantine.empty() && byzantine.size() != num_controllers) {
    fail("CapInstance: byzantine size");
  }
  if (!fixed_leader.empty() && fixed_leader.size() != num_switches) {
    fail("CapInstance: fixed_leader size");
  }
  for (std::size_t i = 0; i < fixed_leader.size(); ++i) {
    if (fixed_leader[i] &&
        (*fixed_leader[i] < 0 ||
         static_cast<std::size_t>(*fixed_leader[i]) >= num_controllers)) {
      fail("CapInstance: fixed_leader[" + std::to_string(i) + "] = " +
           std::to_string(*fixed_leader[i]) + " out of controller range");
    }
  }
  for (std::size_t i = 0; i < num_switches; ++i) {
    if (group_size[i] < 1) fail("CapInstance: group_size must be >= 1");
    if (switch_load[i] < 0.0) fail("CapInstance: switch_load must be >= 0");
  }
  for (std::size_t j = 0; j < num_controllers; ++j) {
    if (controller_capacity[j] < 0.0) {
      fail("CapInstance: controller_capacity must be >= 0");
    }
  }
}

std::vector<std::size_t> Assignment::group_of(std::size_t sw) const {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < assign_[sw].size(); ++j) {
    if (assign_[sw][j]) out.push_back(j);
  }
  return out;
}

std::vector<std::size_t> Assignment::switches_of(std::size_t ctl) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < assign_.size(); ++i) {
    if (assign_[i][ctl]) out.push_back(i);
  }
  return out;
}

bool Assignment::controller_used(std::size_t ctl) const {
  for (const auto& row : assign_) {
    if (row[ctl]) return true;
  }
  return false;
}

std::size_t Assignment::controllers_used() const {
  std::size_t used = 0;
  for (std::size_t j = 0; j < num_controllers(); ++j) used += controller_used(j) ? 1 : 0;
  return used;
}

std::size_t Assignment::total_links() const {
  std::size_t links = 0;
  for (const auto& row : assign_) {
    links += static_cast<std::size_t>(std::count(row.begin(), row.end(), true));
  }
  return links;
}

double Assignment::pdl(const Assignment& before, const Assignment& after) {
  if (before.num_switches() != after.num_switches() ||
      before.num_controllers() != after.num_controllers()) {
    throw std::invalid_argument{"Assignment::pdl: dimension mismatch"};
  }
  std::size_t removed = 0;
  std::size_t added = 0;
  for (std::size_t i = 0; i < before.num_switches(); ++i) {
    for (std::size_t j = 0; j < before.num_controllers(); ++j) {
      const bool was = before.assigned(i, j);
      const bool is = after.assigned(i, j);
      if (was && !is) ++removed;
      if (!was && is) ++added;
    }
  }
  const std::size_t denom = before.total_links() + added;
  if (denom == 0) return 0.0;
  return static_cast<double>(removed + added) / static_cast<double>(denom);
}

double cap_objective_value(const Assignment& assignment, CapObjective objective,
                           const Assignment* previous) {
  double value = static_cast<double>(assignment.controllers_used());
  if (objective == CapObjective::kLeastMovement) {
    if (previous == nullptr) {
      throw std::invalid_argument{
          "cap_objective_value: LCR objective requires a previous assignment"};
    }
    std::size_t changed = 0;
    for (std::size_t i = 0; i < assignment.num_switches(); ++i) {
      for (std::size_t j = 0; j < assignment.num_controllers(); ++j) {
        if (assignment.assigned(i, j) != previous->assigned(i, j)) ++changed;
      }
    }
    value += static_cast<double>(changed);
  }
  return value;
}

bool Assignment::feasible_for(const CapInstance& inst) const {
  if (num_switches() != inst.num_switches || num_controllers() != inst.num_controllers) {
    return false;
  }
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    int count = 0;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (!assigned(i, j)) continue;
      ++count;
      if (!inst.byzantine.empty() && inst.byzantine[j]) return false;
      if (inst.max_cs_delay != CapInstance::kNoLimit &&
          inst.cs_delay[i][j] > inst.max_cs_delay) {
        return false;
      }
    }
    if (count < inst.group_size[i]) return false;
    if (!inst.fixed_leader.empty() && inst.fixed_leader[i] &&
        !assigned(i, static_cast<std::size_t>(*inst.fixed_leader[i]))) {
      return false;
    }
    if (inst.max_cc_delay != CapInstance::kNoLimit) {
      const auto group = group_of(i);
      for (std::size_t a = 0; a < group.size(); ++a) {
        for (std::size_t b = a + 1; b < group.size(); ++b) {
          if (inst.cc_delay[group[a]][group[b]] > inst.max_cc_delay ||
              inst.cc_delay[group[b]][group[a]] > inst.max_cc_delay) {
            return false;
          }
        }
      }
    }
  }
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    double load = 0.0;
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      if (assigned(i, j)) load += inst.switch_load[i];
    }
    if (load > inst.controller_capacity[j] + 1e-9) return false;
  }
  return true;
}

namespace {

[[nodiscard]] bool is_byzantine(const CapInstance& inst, std::size_t j) {
  return !inst.byzantine.empty() && inst.byzantine[j];
}

[[nodiscard]] bool eligible(const CapInstance& inst, std::size_t i, std::size_t j) {
  if (is_byzantine(inst, j)) return false;
  if (inst.max_cs_delay != CapInstance::kNoLimit && inst.cs_delay[i][j] > inst.max_cs_delay) {
    return false;
  }
  return true;
}

[[nodiscard]] std::optional<int> leader_of(const CapInstance& inst, std::size_t i) {
  if (inst.fixed_leader.empty()) return std::nullopt;
  return inst.fixed_leader[i];
}

}  // namespace

std::optional<double> usage_lower_bound(const CapInstance& inst) {
  double demand = 0.0;
  int widest_group = 0;
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    demand += inst.switch_load[i] * static_cast<double>(inst.group_size[i]);
    widest_group = std::max(widest_group, inst.group_size[i]);
  }
  std::vector<double> capacities;
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    if (!is_byzantine(inst, j)) capacities.push_back(inst.controller_capacity[j]);
  }
  std::sort(capacities.begin(), capacities.end(), std::greater<>{});
  std::size_t needed = 0;
  double covered = 0.0;
  while (covered < demand - 1e-9) {
    if (needed == capacities.size()) return std::nullopt;
    covered += capacities[needed++];
  }
  return static_cast<double>(std::max(needed, static_cast<std::size_t>(widest_group)));
}

std::optional<Assignment> greedy_assign(const CapInstance& inst) {
  inst.validate();
  Assignment out{inst.num_switches, inst.num_controllers};
  std::vector<double> remaining_capacity = inst.controller_capacity;
  std::vector<int> need = inst.group_size;

  // Fixed leaders first — they are hard requirements.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    const auto leader = leader_of(inst, i);
    if (!leader) continue;
    const auto j = static_cast<std::size_t>(*leader);
    if (!eligible(inst, i, j) || remaining_capacity[j] < inst.switch_load[i]) {
      return std::nullopt;
    }
    out.set(i, j, true);
    remaining_capacity[j] -= inst.switch_load[i];
    --need[i];
  }

  // Repeatedly pick the controller that can serve the most unmet demand.
  for (;;) {
    bool any_need = false;
    for (std::size_t i = 0; i < inst.num_switches; ++i) any_need |= need[i] > 0;
    if (!any_need) break;

    std::size_t best_ctl = inst.num_controllers;
    int best_score = 0;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      int score = 0;
      double cap = remaining_capacity[j];
      for (std::size_t i = 0; i < inst.num_switches; ++i) {
        if (need[i] > 0 && !out.assigned(i, j) && eligible(inst, i, j) &&
            cap >= inst.switch_load[i]) {
          ++score;
          cap -= inst.switch_load[i];
        }
      }
      if (score > best_score) {
        best_score = score;
        best_ctl = j;
      }
    }
    if (best_ctl == inst.num_controllers) return std::nullopt;  // stuck

    // Serve the neediest switches first, nearest-first among ties.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      if (need[i] > 0 && !out.assigned(i, best_ctl) && eligible(inst, i, best_ctl)) {
        candidates.push_back(i);
      }
    }
    std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
      if (need[a] != need[b]) return need[a] > need[b];
      return inst.cs_delay[a][best_ctl] < inst.cs_delay[b][best_ctl];
    });
    bool progressed = false;
    for (const std::size_t i : candidates) {
      if (remaining_capacity[best_ctl] < inst.switch_load[i]) continue;
      out.set(i, best_ctl, true);
      remaining_capacity[best_ctl] -= inst.switch_load[i];
      --need[i];
      progressed = true;
    }
    if (!progressed) return std::nullopt;
  }

  // The greedy ignores the C2C constraint; reject if violated so callers
  // never receive an infeasible warm start.
  if (!out.feasible_for(inst)) return std::nullopt;
  return out;
}

std::optional<Assignment> repair_assign(const CapInstance& inst, const Assignment& previous) {
  inst.validate();
  if (previous.num_switches() != inst.num_switches ||
      previous.num_controllers() != inst.num_controllers) {
    return std::nullopt;
  }
  Assignment out{inst.num_switches, inst.num_controllers};
  std::vector<double> remaining_capacity = inst.controller_capacity;

  // Keep links that are still legal.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (previous.assigned(i, j) && eligible(inst, i, j) &&
          remaining_capacity[j] >= inst.switch_load[i]) {
        out.set(i, j, true);
        remaining_capacity[j] -= inst.switch_load[i];
      }
    }
  }
  // Honour fixed leaders.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    const auto leader = leader_of(inst, i);
    if (!leader || out.assigned(i, static_cast<std::size_t>(*leader))) continue;
    const auto j = static_cast<std::size_t>(*leader);
    if (!eligible(inst, i, j) || remaining_capacity[j] < inst.switch_load[i]) {
      return std::nullopt;
    }
    out.set(i, j, true);
    remaining_capacity[j] -= inst.switch_load[i];
  }
  // Top up groups below B_i with nearest eligible controllers.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    int have = static_cast<int>(out.group_of(i).size());
    if (have >= inst.group_size[i]) continue;
    std::vector<std::size_t> candidates;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (!out.assigned(i, j) && eligible(inst, i, j)) candidates.push_back(j);
    }
    std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
      return inst.cs_delay[i][a] < inst.cs_delay[i][b];
    });
    for (const std::size_t j : candidates) {
      if (have >= inst.group_size[i]) break;
      if (remaining_capacity[j] < inst.switch_load[i]) continue;
      out.set(i, j, true);
      remaining_capacity[j] -= inst.switch_load[i];
      ++have;
    }
    if (have < inst.group_size[i]) return std::nullopt;
  }
  if (!out.feasible_for(inst)) return std::nullopt;
  return out;
}

CapResult solve_cap(const CapInstance& inst, CapObjective objective,
                    const Assignment* previous, const MilpOptions& milp_options,
                    bool seed_incumbent_from_previous) {
  inst.validate();
  if (objective == CapObjective::kLeastMovement && previous == nullptr) {
    throw std::invalid_argument{"solve_cap: LCR objective requires a previous assignment"};
  }
  const prof::Scope scope{"solver.cap"};
  prof::StopWatch sw;

  LpProblem lp;
  // A_ij variables, created only for eligible pairs ([C2.3]/[C2.5] are
  // enforced by omission — ineligible A_ij is identically zero).
  std::vector<std::vector<int>> a_var(inst.num_switches,
                                      std::vector<int>(inst.num_controllers, -1));
  std::vector<int> binaries;
  double lcr_constant = 0.0;
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      const bool was = previous != nullptr && previous->assigned(i, j);
      if (!eligible(inst, i, j)) {
        // |A_ij - a_ij| with A forced 0 contributes a_ij to the LCR objective.
        if (objective == CapObjective::kLeastMovement && was) lcr_constant += 1.0;
        continue;
      }
      // LCR linearisation for binary A and constant a: |A - a| = a + (1-2a)A.
      double cost = 0.0;
      if (objective == CapObjective::kLeastMovement) {
        cost = was ? -1.0 : 1.0;
        if (was) lcr_constant += 1.0;
      }
      const int v = lp.add_variable(cost, 0.0, 1.0);
      a_var[i][j] = v;
      binaries.push_back(v);
    }
  }
  // x_j usage variables; byzantine controllers pinned to zero ([C2.5]).
  std::vector<int> x_var(inst.num_controllers, -1);
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    const double ub = is_byzantine(inst, j) ? 0.0 : 1.0;
    x_var[j] = lp.add_variable(1.0, 0.0, ub);
    binaries.push_back(x_var[j]);
  }

  // [C1.1]/[C2.1]: group size; and linking sum_i A_ij <= |S| * x_j.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (a_var[i][j] >= 0) terms.push_back({a_var[i][j], 1.0});
    }
    if (static_cast<int>(terms.size()) < inst.group_size[i]) {
      // Not enough eligible controllers: trivially infeasible.
      CapResult r;
      r.stats.backend =
          milp_options.lp_backend == LpBackend::kSparse ? "sparse" : "dense";
      r.stats.wall_time_ms = 0.0;
      r.stats.proven = true;
      return r;
    }
    lp.add_constraint(std::move(terms), LpProblem::Sense::kGe,
                      static_cast<double>(inst.group_size[i]));
  }
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      if (a_var[i][j] >= 0) terms.push_back({a_var[i][j], 1.0});
    }
    if (terms.empty()) continue;
    terms.push_back({x_var[j], -static_cast<double>(inst.num_switches)});
    lp.add_constraint(std::move(terms), LpProblem::Sense::kLe, 0.0);
  }
  // Valid covering cut (implied by A_ij <= x_j with [C2.1]): every switch
  // needs at least B_i *used* eligible controllers. Aggregated per switch,
  // it tightens the LP bound on controller usage dramatically — without it
  // the relaxation bounds usage by total_links/|S| and branch-and-bound
  // degenerates into enumeration.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t j = 0; j < inst.num_controllers; ++j) {
      if (a_var[i][j] >= 0) terms.push_back({x_var[j], 1.0});
    }
    lp.add_constraint(std::move(terms), LpProblem::Sense::kGe,
                      static_cast<double>(inst.group_size[i]));
  }
  // [C1.2]/[C2.2]: capacity.
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      if (a_var[i][j] >= 0 && inst.switch_load[i] > 0) {
        terms.push_back({a_var[i][j], inst.switch_load[i]});
      }
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), LpProblem::Sense::kLe,
                        inst.controller_capacity[j]);
    }
  }
  // [C1.4]/[C2.4]: C2C delay — quadratic A_ij * A_ij' <= ... linearised to
  // pair exclusions A_ij + A_ij' <= 1 for pairs exceeding D_c,c. This is
  // the constraint family that makes the paper's Gurobi solve an IQCP and
  // visibly slower (Fig. 6); here it shows up as many extra rows.
  if (inst.max_cc_delay != CapInstance::kNoLimit) {
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      for (std::size_t j = 0; j < inst.num_controllers; ++j) {
        if (a_var[i][j] < 0) continue;
        for (std::size_t j2 = j + 1; j2 < inst.num_controllers; ++j2) {
          if (a_var[i][j2] < 0) continue;
          if (inst.cc_delay[j][j2] > inst.max_cc_delay ||
              inst.cc_delay[j2][j] > inst.max_cc_delay) {
            lp.add_constraint({{a_var[i][j], 1.0}, {a_var[i][j2], 1.0}},
                              LpProblem::Sense::kLe, 1.0);
          }
        }
      }
    }
  }
  // [C2.6]: fixed leaders.
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    const auto leader = leader_of(inst, i);
    if (!leader) continue;
    const int v = a_var[i][static_cast<std::size_t>(*leader)];
    if (v < 0) {
      CapResult r;  // leader not eligible: infeasible
      r.stats.backend =
          milp_options.lp_backend == LpBackend::kSparse ? "sparse" : "dense";
      r.stats.proven = true;
      return r;
    }
    lp.set_bounds(v, 1.0, 1.0);
  }

  // Warm start: repair the previous assignment for LCR, greedy otherwise.
  // With seed_incumbent_from_previous, a kTrivial re-solve also repairs the
  // previous assignment and keeps whichever incumbent scores better —
  // reassignment instances barely move, so the repair usually wins.
  std::optional<Assignment> warm =
      (objective == CapObjective::kLeastMovement && previous != nullptr)
          ? repair_assign(inst, *previous)
          : greedy_assign(inst);
  if (seed_incumbent_from_previous && objective == CapObjective::kTrivial &&
      previous != nullptr) {
    std::optional<Assignment> repaired = repair_assign(inst, *previous);
    if (repaired &&
        (!warm || repaired->controllers_used() < warm->controllers_used())) {
      warm = std::move(repaired);
    }
  }
  MilpOptions options = milp_options;
  double warm_objective = 0.0;
  if (warm) {
    warm_objective = cap_objective_value(
        *warm, objective,
        objective == CapObjective::kLeastMovement ? previous : nullptr);
    // The MILP objective omits lcr_constant; convert the incumbent to match.
    options.incumbent_objective = warm_objective - lcr_constant;
  }
  // The counting bound ends the search at the first incumbent that meets it
  // (often the warm start itself) without changing which assignment wins.
  options.lower_bound =
      objective == CapObjective::kTrivial ? usage_lower_bound(inst) : std::nullopt;

  const std::size_t num_constraints = lp.num_constraints();
  MilpSolver solver{std::move(lp)};
  solver.set_binary(binaries);
  // Deciding which controllers are used dominates the combinatorics; the
  // A_ij layer mostly follows once x is fixed.
  std::vector<int> usable_x;
  for (std::size_t j = 0; j < inst.num_controllers; ++j) {
    if (!is_byzantine(inst, j)) usable_x.push_back(x_var[j]);
  }
  solver.set_branch_priority(usable_x);
  const MilpSolution milp = solver.solve(options);

  CapResult result;
  result.stats.backend =
      milp_options.lp_backend == LpBackend::kSparse ? "sparse" : "dense";
  result.stats.milp_nodes = milp.nodes_explored;
  result.stats.lp_iterations = milp.lp_iterations;
  result.stats.lp_warm_hits = milp.lp_warm_hits;
  result.stats.num_variables = binaries.size();
  result.stats.num_constraints = num_constraints;
  result.stats.proven = !milp.hit_node_limit && !milp.hit_time_limit;

  if (milp.status == LpStatus::kOptimal) {
    result.feasible = true;
    result.assignment = Assignment{inst.num_switches, inst.num_controllers};
    for (std::size_t i = 0; i < inst.num_switches; ++i) {
      for (std::size_t j = 0; j < inst.num_controllers; ++j) {
        if (a_var[i][j] >= 0 &&
            milp.values[static_cast<std::size_t>(a_var[i][j])] > 0.5) {
          result.assignment.set(i, j, true);
        }
      }
    }
    result.objective = milp.objective + lcr_constant;
  } else if (warm) {
    // Search proved nothing beats the warm start: the heuristic is optimal
    // (or the node limit was hit and it is the best known).
    result.feasible = true;
    result.assignment = *warm;
    result.objective = warm_objective;  // already includes lcr_constant terms
    result.stats.used_greedy_fallback = true;
  }

  result.stats.wall_time_ms = sw.elapsed_ms();
  return result;
}

}  // namespace curb::opt
