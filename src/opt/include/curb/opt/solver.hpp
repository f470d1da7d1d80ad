#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "curb/opt/cap.hpp"

namespace curb::opt {

/// CAP solver backends (DESIGN.md §12).
enum class CapSolverBackend : std::uint8_t {
  /// Exact branch-and-bound over the dense-tableau simplex (solve_cap) —
  /// the one exact OP() path and the byte-stable default for simulations.
  kDense,
  /// Partition-based grouping heuristic (LazyCtrl-style). No optimality
  /// proof; solves 1000 switches x 100 controllers in milliseconds.
  kHeuristic,
};

[[nodiscard]] constexpr const char* to_string(CapSolverBackend b) {
  switch (b) {
    case CapSolverBackend::kDense: return "dense";
    case CapSolverBackend::kHeuristic: return "heuristic";
  }
  return "?";
}

/// Parses "dense" | "heuristic" (as accepted by curb-sim --solver and the
/// CURB_SOLVER env var); nullopt on anything else.
[[nodiscard]] std::optional<CapSolverBackend> parse_cap_solver_backend(
    std::string_view name);

struct CapSolverOptions {
  /// Branch-and-bound limits for the dense backend.
  MilpOptions milp;
  /// Cache the last feasible assignment inside the solver and pass it as
  /// `previous` when the caller passes none. No backend reads `previous` on
  /// a kTrivial solve, and every kLeastMovement caller passes its own, so
  /// the cache currently feeds nothing (ROADMAP item 1 drops it).
  bool reuse_last_assignment = true;
};

/// Common interface over the backends. A Curb network keeps one solver
/// alive across OP() invocations; its only state is the cached assignment
/// behind CapSolverOptions::reuse_last_assignment.
class CapSolver {
 public:
  virtual ~CapSolver() = default;

  [[nodiscard]] virtual CapSolverBackend backend() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(backend()); }

  /// Solve `instance` under `objective`. When `previous` is null and an
  /// earlier solve succeeded, the cached assignment stands in (see
  /// CapSolverOptions::reuse_last_assignment).
  [[nodiscard]] CapResult solve(const CapInstance& instance,
                                CapObjective objective = CapObjective::kTrivial,
                                const Assignment* previous = nullptr);

 protected:
  explicit CapSolver(CapSolverOptions options) : options_{std::move(options)} {}
  [[nodiscard]] virtual CapResult do_solve(const CapInstance& instance,
                                           CapObjective objective,
                                           const Assignment* previous) = 0;

  CapSolverOptions options_;

 private:
  std::optional<Assignment> last_;
};

[[nodiscard]] std::unique_ptr<CapSolver> make_cap_solver(
    CapSolverBackend backend, CapSolverOptions options = {});

/// One-shot convenience: construct the backend, solve, discard.
[[nodiscard]] CapResult solve_cap_with(CapSolverBackend backend,
                                       const CapInstance& instance,
                                       CapObjective objective = CapObjective::kTrivial,
                                       const Assignment* previous = nullptr,
                                       const MilpOptions& milp_options = {});

/// Optimality gap of `achieved_objective` versus the exact optimum of
/// `instance` (solved with the dense backend): (achieved - opt) /
/// max(opt, 1). Returns nullopt when the exact solve fails to prove an
/// optimum within `milp_options` limits. Intended for instances small
/// enough to solve exactly — this is how the heuristic backend's quality is
/// audited in tests and benches.
[[nodiscard]] std::optional<double> optimality_gap(
    const CapInstance& instance, CapObjective objective, const Assignment* previous,
    double achieved_objective, const MilpOptions& milp_options = {});

}  // namespace curb::opt
