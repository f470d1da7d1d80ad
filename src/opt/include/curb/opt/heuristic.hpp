#pragma once

#include <optional>

#include "curb/opt/cap.hpp"

namespace curb::opt {

/// LazyCtrl-style partition heuristic for the CAP. Instead of branching, it
///  (1) ranks controllers by attraction — how many switches count them among
///      their B_i nearest eligible controllers,
///  (2) opens a minimal prefix and partitions every switch onto its B_i
///      nearest open eligible controllers, capacity permitting, opening the
///      next-ranked controller whenever the partition gets stuck, and
///  (3) runs a closing pass that evicts lightly-used controllers whose
///      switches can be re-homed onto the remaining open set at an objective
///      improvement — this is what pulls it close to the exact optimum on
///      TCR instances.
///
/// For CapObjective::kLeastMovement, `previous` links that are still legal
/// are kept first and only the shortfall is partitioned, so reassignment is
/// near-incremental. Runs in O(open_iterations * S * C) — milliseconds at
/// 1000 switches x 100 controllers, where exact branch-and-bound is not an
/// option.
///
/// May return nullopt on feasible instances (like greedy_assign); it never
/// returns an infeasible assignment. The optimality gap versus the exact
/// solver is reported by solver.hpp's optimality_gap() on instances small
/// enough to solve exactly.
[[nodiscard]] std::optional<Assignment> partition_assign(
    const CapInstance& instance, CapObjective objective = CapObjective::kTrivial,
    const Assignment* previous = nullptr);

}  // namespace curb::opt
