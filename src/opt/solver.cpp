#include "curb/opt/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "curb/opt/heuristic.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::opt {

std::optional<CapSolverBackend> parse_cap_solver_backend(std::string_view name) {
  if (name == "dense") return CapSolverBackend::kDense;
  if (name == "heuristic") return CapSolverBackend::kHeuristic;
  return std::nullopt;
}

CapResult CapSolver::solve(const CapInstance& instance, CapObjective objective,
                           const Assignment* previous) {
  if (previous == nullptr && options_.reuse_last_assignment && last_ &&
      last_->num_switches() == instance.num_switches &&
      last_->num_controllers() == instance.num_controllers) {
    previous = &*last_;
  }
  CapResult result = do_solve(instance, objective, previous);
  if (result.feasible) last_ = result.assignment;
  return result;
}

namespace {

class DenseCapSolver final : public CapSolver {
 public:
  explicit DenseCapSolver(CapSolverOptions options) : CapSolver{std::move(options)} {}
  [[nodiscard]] CapSolverBackend backend() const override {
    return CapSolverBackend::kDense;
  }

 protected:
  CapResult do_solve(const CapInstance& instance, CapObjective objective,
                     const Assignment* previous) override {
    return solve_cap(instance, objective, previous, options_.milp);
  }
};

class HeuristicCapSolver final : public CapSolver {
 public:
  explicit HeuristicCapSolver(CapSolverOptions options)
      : CapSolver{std::move(options)} {}
  [[nodiscard]] CapSolverBackend backend() const override {
    return CapSolverBackend::kHeuristic;
  }

 protected:
  CapResult do_solve(const CapInstance& instance, CapObjective objective,
                     const Assignment* previous) override {
    prof::StopWatch sw;
    CapResult result;
    result.stats.backend = "heuristic";

    std::optional<Assignment> assignment =
        partition_assign(instance, objective, previous);
    if (!assignment) {
      // The partition can get stuck on feasible instances; fall back to the
      // dense backend's construction heuristics before giving up.
      assignment = (objective == CapObjective::kLeastMovement && previous != nullptr)
                       ? repair_assign(instance, *previous)
                       : greedy_assign(instance);
      result.stats.used_greedy_fallback = assignment.has_value();
    }
    if (assignment) {
      result.feasible = true;
      result.assignment = std::move(*assignment);
      result.objective = cap_objective_value(
          result.assignment, objective,
          objective == CapObjective::kLeastMovement ? previous : nullptr);
    }
    result.stats.wall_time_ms = sw.elapsed_ms();
    return result;
  }
};

}  // namespace

std::unique_ptr<CapSolver> make_cap_solver(CapSolverBackend backend,
                                           CapSolverOptions options) {
  switch (backend) {
    case CapSolverBackend::kDense:
      return std::make_unique<DenseCapSolver>(std::move(options));
    case CapSolverBackend::kHeuristic:
      return std::make_unique<HeuristicCapSolver>(std::move(options));
  }
  throw std::invalid_argument{"make_cap_solver: unknown backend"};
}

CapResult solve_cap_with(CapSolverBackend backend, const CapInstance& instance,
                         CapObjective objective, const Assignment* previous,
                         const MilpOptions& milp_options) {
  CapSolverOptions options;
  options.milp = milp_options;
  // One-shot: no cached assignment to reuse, and do not surprise callers
  // that pass previous == nullptr on purpose.
  options.reuse_last_assignment = false;
  return make_cap_solver(backend, std::move(options))
      ->solve(instance, objective, previous);
}

std::optional<double> optimality_gap(const CapInstance& instance,
                                     CapObjective objective,
                                     const Assignment* previous,
                                     double achieved_objective,
                                     const MilpOptions& milp_options) {
  const CapResult exact = solve_cap_with(CapSolverBackend::kDense, instance,
                                         objective, previous, milp_options);
  if (!exact.feasible || !exact.stats.proven) return std::nullopt;
  const double opt = exact.objective;
  return (achieved_objective - opt) / std::max(opt, 1.0);
}

}  // namespace curb::opt
