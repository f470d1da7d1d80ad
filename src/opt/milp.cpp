#include "curb/opt/milp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "curb/opt/sparse_lp.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::opt {

namespace {
constexpr double kIntEps = 1e-6;

[[nodiscard]] bool is_integral(double v) { return std::abs(v - std::round(v)) <= kIntEps; }
}  // namespace

void MilpSolver::set_binary(int var) {
  if (var < 0 || static_cast<std::size_t>(var) >= problem_.num_variables()) {
    throw std::out_of_range{"MilpSolver: unknown variable"};
  }
  if (problem_.lower(var) < -kIntEps || problem_.upper(var) > 1.0 + kIntEps) {
    throw std::invalid_argument{"MilpSolver: binary variable must have bounds within [0,1]"};
  }
  binaries_.push_back(var);
}

void MilpSolver::set_binary(const std::vector<int>& vars) {
  for (const int v : vars) set_binary(v);
}

void MilpSolver::set_branch_priority(const std::vector<int>& vars) {
  for (const int v : vars) {
    if (v < 0 || static_cast<std::size_t>(v) >= problem_.num_variables()) {
      throw std::out_of_range{"MilpSolver: unknown priority variable"};
    }
  }
  priority_ = vars;
}

MilpSolution MilpSolver::solve(const MilpOptions& options) {
  MilpSolution best;
  best.status = LpStatus::kInfeasible;
  double incumbent = options.incumbent_objective.value_or(LpProblem::kInf);

  const bool integral_objective = options.assume_integral_objective && [&] {
    for (std::size_t j = 0; j < problem_.num_variables(); ++j) {
      if (!is_integral(problem_.cost(static_cast<int>(j)))) return false;
    }
    return true;
  }();

  // A node is a set of (variable, fixed-value) decisions applied to bounds.
  struct Node {
    std::vector<std::pair<int, double>> fixings;
  };
  std::vector<Node> stack;
  stack.push_back({});

  MilpSolution stats;
  const prof::Scope scope{"solver.milp"};
  prof::StopWatch sw;
  // The sparse solver persists across nodes: the constraint matrix is
  // factored once, and each node's relaxation warm-starts from the basis
  // the previous node left behind (only variable bounds change between
  // nodes). The dense tableau solver is stateless per call.
  std::unique_ptr<SparseLpSolver> sparse;
  if (options.lp_backend == LpBackend::kSparse) {
    sparse = std::make_unique<SparseLpSolver>(problem_);
  }
  const auto solve_relaxation = [&](std::size_t max_iterations) {
    if (sparse == nullptr) return solve_lp(problem_, max_iterations);
    LpSolution s = sparse->solve(max_iterations);
    if (std::getenv("CURB_LP_DIFF") != nullptr) {
      LpSolution d = solve_lp(problem_, max_iterations);
      if (d.status != s.status ||
          (d.status == LpStatus::kOptimal &&
           std::abs(d.objective - s.objective) > 1e-6)) {
        std::fprintf(stderr,
                     "LP DIFF node=%zu sparse={%d %.9f} dense={%d %.9f}\n",
                     stats.nodes_explored, static_cast<int>(s.status), s.objective,
                     static_cast<int>(d.status), d.objective);
      }
    }
    return s;
  };
  // Once the incumbent meets a proven lower bound nothing strictly better
  // exists, so the rest of the tree could only be pruned.
  const double lower_bound = options.lower_bound.value_or(-LpProblem::kInf);
  while (!stack.empty() && incumbent > lower_bound + kIntEps) {
    if (stats.nodes_explored >= options.max_nodes) {
      best.hit_node_limit = true;
      break;
    }
    if (options.max_wall_ms > 0.0 && sw.elapsed_ms() > options.max_wall_ms) {
      best.hit_time_limit = true;
      break;
    }
    const Node node = std::move(stack.back());
    stack.pop_back();
    ++stats.nodes_explored;

    // Apply fixings; remember originals for restore.
    std::vector<std::pair<int, std::pair<double, double>>> saved;
    saved.reserve(node.fixings.size());
    bool conflict = false;
    for (const auto& [var, value] : node.fixings) {
      saved.push_back({var, {problem_.lower(var), problem_.upper(var)}});
      if (value < problem_.lower(var) - kIntEps || value > problem_.upper(var) + kIntEps) {
        conflict = true;
        break;
      }
      problem_.set_bounds(var, value, value);
    }

    LpSolution relax;
    if (!conflict) relax = solve_relaxation(options.max_lp_iterations_per_node);
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      problem_.set_bounds(it->first, it->second.first, it->second.second);
    }
    if (conflict) continue;

    stats.lp_iterations += relax.iterations;
    if (relax.status != LpStatus::kOptimal) continue;  // infeasible/limit: prune

    double bound = relax.objective;
    if (integral_objective) bound = std::ceil(bound - kIntEps);
    if (bound >= incumbent - kIntEps) continue;  // cannot beat incumbent

    // Most-fractional branching variable, preferring priority variables.
    int branch_var = -1;
    double branch_frac = 0.0;
    for (const int v : priority_) {
      const double x = relax.values[static_cast<std::size_t>(v)];
      const double frac = std::abs(x - std::round(x));
      if (frac > kIntEps && frac > branch_frac) {
        branch_frac = frac;
        branch_var = v;
      }
    }
    if (branch_var < 0) {
      for (const int v : binaries_) {
        const double x = relax.values[static_cast<std::size_t>(v)];
        const double frac = std::abs(x - std::round(x));
        if (frac > kIntEps && frac > branch_frac) {
          branch_frac = frac;
          branch_var = v;
        }
      }
    }

    if (branch_var < 0) {
      // Integral solution: new incumbent.
      if (relax.objective < incumbent - kIntEps) {
        incumbent = relax.objective;
        best.status = LpStatus::kOptimal;
        best.objective = relax.objective;
        best.values = relax.values;
        // Snap binaries exactly.
        for (const int v : binaries_) {
          best.values[static_cast<std::size_t>(v)] =
              std::round(best.values[static_cast<std::size_t>(v)]);
        }
      }
      continue;
    }

    // Depth-first: push the "round toward LP value" child last so it pops first.
    const double x = relax.values[static_cast<std::size_t>(branch_var)];
    Node zero = node;
    zero.fixings.push_back({branch_var, 0.0});
    Node one = node;
    one.fixings.push_back({branch_var, 1.0});
    if (x >= 0.5) {
      stack.push_back(std::move(zero));
      stack.push_back(std::move(one));
    } else {
      stack.push_back(std::move(one));
      stack.push_back(std::move(zero));
    }
  }

  best.nodes_explored = stats.nodes_explored;
  best.lp_iterations = stats.lp_iterations;
  if (sparse != nullptr) best.lp_warm_hits = sparse->warm_hits();
  return best;
}

}  // namespace curb::opt
