#include "curb/opt/heuristic.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "curb/prof/profiler.hpp"

namespace curb::opt {

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

/// Working state of one partition run.
struct Partition {
  const CapInstance& inst;
  const Assignment* previous;
  Assignment out;
  std::vector<double> remaining;            // capacity left per controller
  std::vector<bool> open;                   // controllers admitted to the partition
  std::vector<std::vector<std::size_t>> members;  // group per switch, unordered
  std::vector<std::vector<std::size_t>> near;     // eligible controllers by delay

  explicit Partition(const CapInstance& instance, const Assignment* prev)
      : inst{instance},
        previous{prev},
        out{instance.num_switches, instance.num_controllers},
        remaining{instance.controller_capacity},
        open(instance.num_controllers, false),
        members(instance.num_switches),
        near(instance.num_switches) {}

  [[nodiscard]] int need(std::size_t i) const {
    return inst.group_size[i] - static_cast<int>(members[i].size());
  }

  /// C2C pair-exclusion check of candidate j against switch i's current group.
  [[nodiscard]] bool cc_ok(std::size_t i, std::size_t j) const {
    if (inst.max_cc_delay == CapInstance::kNoLimit) return true;
    for (const std::size_t k : members[i]) {
      if (inst.cc_delay[j][k] > inst.max_cc_delay ||
          inst.cc_delay[k][j] > inst.max_cc_delay) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool can_assign(std::size_t i, std::size_t j) const {
    return !out.assigned(i, j) && eligible(inst, i, j) &&
           remaining[j] >= inst.switch_load[i] && cc_ok(i, j);
  }

  void assign(std::size_t i, std::size_t j) {
    out.set(i, j, true);
    remaining[j] -= inst.switch_load[i];
    members[i].push_back(j);
    open[j] = true;
  }

  void unassign(std::size_t i, std::size_t j) {
    out.set(i, j, false);
    remaining[j] += inst.switch_load[i];
    members[i].erase(std::find(members[i].begin(), members[i].end(), j));
  }
};

/// One incremental fill sweep: most-constrained switches first, each taking
/// its nearest open eligible controllers. Returns true when every group is
/// full.
bool fill_open(Partition& p) {
  const std::size_t s = p.inst.num_switches;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < s; ++i) {
    if (p.need(i) > 0) order.push_back(i);
  }
  // Fewest spare open options first so contested capacity goes to the
  // switches with the least slack; index ascending breaks ties.
  std::vector<int> spare(s, 0);
  for (const std::size_t i : order) {
    for (const std::size_t j : p.near[i]) {
      if (p.open[j] && !p.out.assigned(i, j)) ++spare[i];
    }
    spare[i] -= p.need(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spare[a] != spare[b]) return spare[a] < spare[b];
    return a < b;
  });
  bool all_full = true;
  for (const std::size_t i : order) {
    for (const std::size_t j : p.near[i]) {
      if (p.need(i) <= 0) break;
      if (p.open[j] && p.can_assign(i, j)) p.assign(i, j);
    }
    all_full &= p.need(i) <= 0;
  }
  return all_full;
}

/// Objective change from moving switch i's link j -> j2 under LCR (TCR has no
/// link term, so only usage matters there and this returns 0).
double link_move_delta(const Partition& p, std::size_t i, std::size_t from,
                       std::size_t to, CapObjective objective) {
  if (objective != CapObjective::kLeastMovement || p.previous == nullptr) return 0.0;
  double delta = 0.0;
  delta += p.previous->assigned(i, from) ? 1.0 : -1.0;  // link removed
  delta += p.previous->assigned(i, to) ? -1.0 : 1.0;    // link added
  return delta;
}

/// Try to close controller j by re-homing all of its switches onto other
/// open controllers; applies the move only when the objective improves.
bool try_close(Partition& p, std::size_t j, CapObjective objective,
               const std::vector<bool>& leader_pinned) {
  if (leader_pinned[j]) return false;
  const std::vector<std::size_t> homed = p.out.switches_of(j);
  if (homed.empty()) return false;
  // Plan replacements against a scratch capacity ledger so the close is
  // atomic: either every switch re-homes or nothing changes.
  std::vector<double> scratch = p.remaining;
  std::vector<std::pair<std::size_t, std::size_t>> moves;
  double delta = -1.0;  // closing j drops one used controller
  for (const std::size_t i : homed) {
    bool placed = false;
    for (const std::size_t j2 : p.near[i]) {
      if (j2 == j || !p.open[j2] || p.out.assigned(i, j2)) continue;
      if (scratch[j2] < p.inst.switch_load[i]) continue;
      if (!p.cc_ok(i, j2)) continue;
      scratch[j2] -= p.inst.switch_load[i];
      moves.push_back({i, j2});
      delta += link_move_delta(p, i, j, j2, objective);
      placed = true;
      break;
    }
    if (!placed) return false;
  }
  if (delta >= 0.0) return false;
  for (const auto& [i, j2] : moves) {
    p.unassign(i, j);
    p.assign(i, j2);
  }
  p.open[j] = false;
  return true;
}

}  // namespace

std::optional<Assignment> partition_assign(const CapInstance& inst,
                                           CapObjective objective,
                                           const Assignment* previous) {
  inst.validate();
  if (objective == CapObjective::kLeastMovement && previous == nullptr) {
    throw std::invalid_argument{
        "partition_assign: LCR objective requires a previous assignment"};
  }
  const prof::Scope scope{"solver.heuristic"};

  const std::size_t s = inst.num_switches;
  const std::size_t c = inst.num_controllers;
  Partition p{inst, previous};

  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (eligible(inst, i, j)) p.near[i].push_back(j);
    }
    std::sort(p.near[i].begin(), p.near[i].end(), [&](std::size_t a, std::size_t b) {
      if (inst.cs_delay[i][a] != inst.cs_delay[i][b]) {
        return inst.cs_delay[i][a] < inst.cs_delay[i][b];
      }
      return a < b;
    });
    if (static_cast<int>(p.near[i].size()) < inst.group_size[i]) {
      return std::nullopt;  // not enough eligible controllers: infeasible
    }
  }

  // Fixed leaders are hard requirements: place them first.
  std::vector<bool> leader_pinned(c, false);
  for (std::size_t i = 0; i < s; ++i) {
    if (inst.fixed_leader.empty() || !inst.fixed_leader[i]) continue;
    const auto j = static_cast<std::size_t>(*inst.fixed_leader[i]);
    if (!p.can_assign(i, j)) return std::nullopt;
    p.assign(i, j);
    leader_pinned[j] = true;
  }

  // LCR: keep every previous link that is still legal so reassignment is
  // near-incremental — only the shortfall below is re-partitioned.
  if (objective == CapObjective::kLeastMovement && previous != nullptr &&
      previous->num_switches() == s && previous->num_controllers() == c) {
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        if (previous->assigned(i, j) && p.can_assign(i, j)) p.assign(i, j);
      }
    }
  }

  // Attraction ranking: how many switches count controller j among their
  // B_i nearest eligible controllers. This is the partition seed — the
  // LazyCtrl analogue of grouping around cluster heads.
  std::vector<double> attraction(c, 0.0);
  for (std::size_t i = 0; i < s; ++i) {
    const auto want = static_cast<std::size_t>(inst.group_size[i]);
    for (std::size_t r = 0; r < want && r < p.near[i].size(); ++r) {
      attraction[p.near[i][r]] += 1.0;
    }
  }
  std::vector<std::size_t> ranking;
  for (std::size_t j = 0; j < c; ++j) {
    if (!is_byzantine(inst, j)) ranking.push_back(j);
  }
  std::sort(ranking.begin(), ranking.end(), [&](std::size_t a, std::size_t b) {
    if (attraction[a] != attraction[b]) return attraction[a] > attraction[b];
    return a < b;
  });

  // Open controllers until the partition covers every group. A controller is
  // opened by rank, except when the ranked pick cannot help any unfilled
  // switch — then the most helpful closed controller is taken instead.
  std::size_t next_rank = 0;
  while (!fill_open(p)) {
    std::size_t pick = c;
    // Advance the ranking past already-open controllers.
    while (next_rank < ranking.size() && p.open[ranking[next_rank]]) ++next_rank;
    auto helps = [&](std::size_t j) {
      if (p.open[j]) return false;
      for (std::size_t i = 0; i < s; ++i) {
        if (p.need(i) > 0 && p.can_assign(i, j)) return true;
      }
      return false;
    };
    if (next_rank < ranking.size() && helps(ranking[next_rank])) {
      pick = ranking[next_rank];
    } else {
      std::size_t best_score = 0;
      for (const std::size_t j : ranking) {
        if (p.open[j]) continue;
        std::size_t score = 0;
        for (std::size_t i = 0; i < s; ++i) {
          if (p.need(i) > 0 && p.can_assign(i, j)) ++score;
        }
        if (score > best_score) {
          best_score = score;
          pick = j;
        }
      }
    }
    if (pick == c) return std::nullopt;  // nothing left that helps: stuck
    p.open[pick] = true;
  }

  // Evict lightly-used controllers while any close improves the objective.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::size_t> by_usage;
    for (std::size_t j = 0; j < c; ++j) {
      if (p.open[j] && p.out.controller_used(j)) by_usage.push_back(j);
    }
    std::sort(by_usage.begin(), by_usage.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t ua = p.out.switches_of(a).size();
      const std::size_t ub = p.out.switches_of(b).size();
      if (ua != ub) return ua < ub;
      return a < b;
    });
    for (const std::size_t j : by_usage) {
      if (try_close(p, j, objective, leader_pinned)) {
        changed = true;
        break;  // usage counts shifted; re-rank
      }
    }
  }

  // The fill respects every constraint inline, but keep the terminal check
  // so the heuristic can never hand out an infeasible assignment.
  if (!p.out.feasible_for(inst)) return std::nullopt;
  return p.out;
}

}  // namespace curb::opt
