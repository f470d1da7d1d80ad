// curb-capgen: generate, solve and store CAP instances.
//
//   curb-capgen [options]
//     --switches N --controllers M  (default 12/6)
//     --f F                         (group size 3f+1, default 1)
//     --slack X                     (capacity headroom, default 1.5;
//                                    < 1 usually makes the instance infeasible)
//     --dcs --dcc                   (impose the cs / cc delay caps)
//     --byzantine FRAC --leaders FRAC
//     --seed S                      (default 1)
//     --in FILE                     (load instead of generating)
//     --out FILE                    (write the instance JSON)
//     --solve                       (solve and print one summary line)
//     --backend dense|heuristic     (default dense)
//     --wall-ms MS                  (MILP wall-clock budget, a non-negative
//                                    number; 0 = unlimited)
//     --prove                       (record the exact optimum / feasibility in
//                                    the written JSON — this is how the golden
//                                    corpus under tests/opt/corpus is made;
//                                    the optimum is only recorded when the
//                                    budget sufficed to prove it)
//
// Examples:
//   curb-capgen --switches 500 --controllers 50 --backend heuristic --solve
//   curb-capgen --switches 10 --controllers 5 --seed 3 --prove --out c.json
//
// A numeric flag whose value is not entirely a number of the flag's type
// (say "--switches abc" or "--wall-ms 0.5x") prints the usage text and
// exits 2.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "curb/opt/instance_gen.hpp"
#include "curb/opt/instance_io.hpp"
#include "curb/opt/solver.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--switches N] [--controllers M] [--f F] [--slack X]\n"
               "          [--dcs] [--dcc] [--byzantine FRAC] [--leaders FRAC]\n"
               "          [--seed S] [--in FILE] [--out FILE] [--solve]\n"
               "          [--backend dense|heuristic] [--wall-ms MS] [--prove]\n",
               argv0);
  std::exit(2);
}

/// The whole of `text` as a T; anything else (trailing characters, a sign on
/// an unsigned flag, overflow, a non-finite double) is a usage error.
template <typename T>
T parse_number(const char* argv0, const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "curb-capgen: bad %s value '%s'\n", flag.c_str(), text);
    usage(argv0);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  curb::opt::GenProfile profile;
  std::string in_path;
  std::string out_path;
  std::string backend_name = "dense";
  bool solve = false;
  bool prove = false;
  curb::opt::MilpOptions milp;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) { out = parse_number<T>(argv[0], arg, value()); };
    if (arg == "--switches") number(profile.switches);
    else if (arg == "--controllers") number(profile.controllers);
    else if (arg == "--f") number(profile.faults_tolerated);
    else if (arg == "--slack") number(profile.capacity_slack);
    else if (arg == "--dcs") profile.cs_delay_cap = true;
    else if (arg == "--dcc") profile.cc_delay_cap = true;
    else if (arg == "--byzantine") number(profile.byzantine_frac);
    else if (arg == "--leaders") number(profile.fixed_leader_frac);
    else if (arg == "--seed") number(profile.seed);
    else if (arg == "--in") in_path = value();
    else if (arg == "--out") out_path = value();
    else if (arg == "--solve") solve = true;
    else if (arg == "--backend") backend_name = value();
    else if (arg == "--wall-ms") {
      number(milp.max_wall_ms);
      if (milp.max_wall_ms < 0.0) {
        std::fprintf(stderr, "curb-capgen: --wall-ms must be >= 0\n");
        usage(argv[0]);
      }
    }
    else if (arg == "--prove") prove = true;
    else usage(argv[0]);
  }

  const auto backend = curb::opt::parse_cap_solver_backend(backend_name);
  if (!backend) {
    std::fprintf(stderr, "curb-capgen: unknown --backend '%s'\n", backend_name.c_str());
    usage(argv[0]);
  }

  curb::opt::StoredInstance stored;
  try {
    if (!in_path.empty()) {
      stored = curb::opt::load_instance(in_path);
    } else {
      stored.instance = curb::opt::generate_instance(profile);
      stored.name = "gen-s" + std::to_string(profile.switches) + "-c" +
                    std::to_string(profile.controllers) + "-seed" +
                    std::to_string(profile.seed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curb-capgen: %s\n", e.what());
    return 1;
  }

  if (prove) {
    // The dense exact backend proves the optimum (or infeasibility). A
    // feasible assignment certifies feasibility by itself; infeasibility and
    // optimality claims additionally need the search to have completed.
    const curb::opt::CapResult exact = curb::opt::solve_cap_with(
        curb::opt::CapSolverBackend::kDense, stored.instance,
        curb::opt::CapObjective::kTrivial, nullptr, milp);
    if (exact.feasible) {
      stored.feasible = true;
      if (exact.stats.proven) stored.tcr_optimum = exact.objective;
    } else if (exact.stats.proven) {
      stored.feasible = false;
    }
    std::printf("prove: feasible=%s optimum=%s\n",
                stored.feasible ? (*stored.feasible ? "1" : "0") : "(unproven)",
                stored.tcr_optimum ? std::to_string(*stored.tcr_optimum).c_str()
                                   : "(unproven)");
  }

  if (solve) {
    const curb::opt::CapResult result = curb::opt::solve_cap_with(
        *backend, stored.instance, curb::opt::CapObjective::kTrivial, nullptr, milp);
    std::printf(
        "solve: backend=%s feasible=%d objective=%.1f used=%zu nodes=%zu "
        "lp_iters=%zu fallback=%d wall_ms=%.1f\n",
        result.stats.backend.c_str(), result.feasible ? 1 : 0, result.objective,
        result.feasible ? result.assignment.controllers_used() : 0,
        result.stats.milp_nodes, result.stats.lp_iterations,
        result.stats.used_greedy_fallback ? 1 : 0, result.stats.wall_time_ms);
    if (!result.feasible && stored.feasible.value_or(false)) {
      std::fprintf(stderr, "curb-capgen: backend missed a known-feasible instance\n");
      return 1;
    }
  }

  if (!out_path.empty()) {
    if (!curb::opt::save_instance(stored, out_path)) {
      std::fprintf(stderr, "curb-capgen: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
