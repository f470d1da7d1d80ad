// Golden corpus: committed CAP instances with exact optima proven by
// `curb-capgen --prove` at generation time. Every backend re-solves each of
// them on every run; the dense backend must reproduce the recorded optimum
// bit-for-bit, and the heuristic must stay feasible within its gap bound.
// Regenerate an instance with
//   curb-capgen --switches N --controllers M --seed S --prove --out FILE

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "curb/opt/instance_io.hpp"
#include "curb/opt/solver.hpp"

#ifndef CURB_OPT_CORPUS_DIR
#error "CURB_OPT_CORPUS_DIR must point at tests/opt/corpus"
#endif

namespace curb::opt {
namespace {

[[nodiscard]] std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator{CURB_OPT_CORPUS_DIR}) {
    if (entry.path().extension() == ".json") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(SolverCorpus, CorpusIsPresent) {
  // An empty corpus would silently skip every check below.
  EXPECT_GE(corpus_files().size(), 10u);
}

TEST(SolverCorpus, ExactBackendsReproduceKnownOptima) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const StoredInstance stored = load_instance(path);
    ASSERT_TRUE(stored.feasible) << "corpus entries must record feasibility";

    const CapResult r = solve_cap_with(CapSolverBackend::kDense, stored.instance);
    EXPECT_EQ(r.feasible, *stored.feasible);
    // Every entry was proven at generation time; dense must prove it too.
    EXPECT_TRUE(r.stats.proven);
    if (r.feasible) {
      EXPECT_TRUE(r.assignment.feasible_for(stored.instance));
      if (stored.tcr_optimum) {
        EXPECT_DOUBLE_EQ(r.objective, *stored.tcr_optimum);
      }
    }
  }
}

TEST(SolverCorpus, UsageLowerBoundNeverExceedsKnownOptima) {
  // The bound ends the exact search early; one above the optimum would end
  // it at a suboptimal incumbent and call that proven.
  std::size_t checked = 0;
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const StoredInstance stored = load_instance(path);
    if (!stored.tcr_optimum) continue;
    const std::optional<double> bound = usage_lower_bound(stored.instance);
    ASSERT_TRUE(bound.has_value()) << "a feasible instance always has a bound";
    EXPECT_LE(*bound, *stored.tcr_optimum + 1e-9);
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(SolverCorpus, HeuristicStaysFeasibleAndBounded) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const StoredInstance stored = load_instance(path);
    const CapResult r = solve_cap_with(CapSolverBackend::kHeuristic, stored.instance);
    if (!stored.feasible.value_or(true)) {
      EXPECT_FALSE(r.feasible) << "heuristic claimed an infeasible instance";
      continue;
    }
    if (r.feasible) {
      EXPECT_TRUE(r.assignment.feasible_for(stored.instance));
      if (stored.tcr_optimum) {
        EXPECT_GE(r.objective, *stored.tcr_optimum - 1e-9);
        EXPECT_LE(r.objective, 2.0 * *stored.tcr_optimum + 2.0);
      }
    }
  }
}

}  // namespace
}  // namespace curb::opt
