// Solver-backend scaling: solve time, controllers used and (where the exact
// optimum is provable) the optimality gap, for each CapSolver backend across
// instance sizes from Internet2-class up to 1000 switches x 100 controllers.
// The dense tableau stops being measured past 100x20, once its working set
// would dominate the runtime (its per-node cost is O(rows x cols)); the
// partition heuristic covers the far end in milliseconds. Each row solves
// the same instance twice — cold, then again with two controllers turned
// byzantine and the cold assignment passed as `previous` (the paper's RE-ASS
// path).

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "curb/opt/instance_gen.hpp"
#include "curb/opt/solver.hpp"

namespace {

using curb::opt::CapInstance;
using curb::opt::CapResult;
using curb::opt::CapSolverBackend;
using curb::opt::GenProfile;

struct Size {
  std::size_t switches;
  std::size_t controllers;
  bool exact_ok;  // run the dense backend (affordable at this size)?
};

CapInstance instance_for(const Size& size) {
  GenProfile profile;
  profile.switches = size.switches;
  profile.controllers = size.controllers;
  profile.faults_tolerated = 1;
  profile.capacity_slack = 1.5;
  profile.cs_delay_cap = true;
  profile.seed = 97;
  return curb::opt::generate_instance(profile);
}

void run_backend(const CapInstance& inst, CapSolverBackend backend, const Size& size) {
  curb::opt::CapSolverOptions options;
  // Sizes past the proof frontier report the truncated search's incumbent;
  // 10s keeps the whole sweep around a minute.
  options.milp.max_wall_ms = 10'000.0;
  auto solver = curb::opt::make_cap_solver(backend, options);

  const CapResult cold = solver->solve(inst);

  // Re-solve: the paper's RE-ASS path. Flag two controllers byzantine and
  // hand the cold solution back as `previous`.
  CapInstance reass = inst;
  reass.byzantine.assign(inst.num_controllers, false);
  reass.byzantine[0] = true;
  reass.byzantine[inst.num_controllers / 2] = true;
  CapResult warm;
  if (cold.feasible) {
    warm = solver->solve(reass, curb::opt::CapObjective::kTrivial, &cold.assignment);
  }

  double gap = -1.0;
  if (backend == CapSolverBackend::kHeuristic && cold.feasible && size.exact_ok) {
    curb::opt::MilpOptions exact_options;
    exact_options.max_wall_ms = curb::bench::fast_mode() ? 5'000.0 : 30'000.0;
    if (const auto g = curb::opt::optimality_gap(inst, curb::opt::CapObjective::kTrivial,
                                                 nullptr, cold.objective, exact_options)) {
      gap = *g;
    }
  }

  curb::bench::print_cell(std::string{curb::opt::to_string(backend)});
  curb::bench::print_cell(static_cast<double>(size.switches));
  curb::bench::print_cell(static_cast<double>(size.controllers));
  curb::bench::print_cell(cold.feasible
                              ? static_cast<double>(cold.assignment.controllers_used())
                              : -1.0);
  curb::bench::print_cell(cold.stats.wall_time_ms);
  curb::bench::print_cell(warm.feasible ? warm.stats.wall_time_ms : -1.0);
  curb::bench::print_cell(gap);
  curb::bench::end_row();

  curb::bench::BenchResults::add(
      "solver_scale",
      {{"backend", curb::opt::to_string(backend)},
       {"switches", std::to_string(size.switches)},
       {"controllers", std::to_string(size.controllers)}},
      {{"used", cold.feasible
                    ? static_cast<double>(cold.assignment.controllers_used())
                    : -1.0},
       {"solve_ms", cold.stats.wall_time_ms},
       {"warm_solve_ms", warm.feasible ? warm.stats.wall_time_ms : -1.0},
       {"milp_nodes", static_cast<double>(cold.stats.milp_nodes)},
       {"gap", gap}});
}

}  // namespace

int main() {
  curb::bench::print_header("CAP solver backends at scale",
                            "scaling past Internet2, ROADMAP item 1");
  curb::bench::print_row_header({"backend", "switches", "ctls", "used", "solve_ms",
                                 "warm_ms", "gap"});

  // CURB_BENCH_FAST trims the sweep to the sizes CI can afford. exact_ok
  // marks the sizes dense runs at; the heuristic's gap is audited there and
  // reads -1 wherever dense does not prove its optimum within the budget.
  // The proof frontier is driven by controller count (the x_j branching
  // layer), not switch count: dense proves 50x10 in under a second but not
  // 60x12 in ten.
  std::vector<Size> sizes = {{16, 8, true}, {50, 10, true}};
  if (!curb::bench::fast_mode()) {
    sizes.push_back({60, 12, true});
    sizes.push_back({100, 20, true});
    sizes.push_back({300, 40, false});
    sizes.push_back({1000, 100, false});
  }

  for (const Size& size : sizes) {
    const CapInstance inst = instance_for(size);
    if (size.exact_ok) run_backend(inst, CapSolverBackend::kDense, size);
    run_backend(inst, CapSolverBackend::kHeuristic, size);
  }
  return 0;
}
