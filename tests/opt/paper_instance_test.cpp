// Pins the dense solve of the paper's initial OP() instance: Internet2's 34
// switches and 16 controllers, B = 4, unit load, capacity 12, D_cs = 14 ms.
// curb-sim and the repository benchmark set up this instance, and
// bench_micro's BM_CapSolveInternet2 solves it. Depth-first branch-and-bound
// first reaches a 12-controller assignment at node 19, and the counting
// bound (136 links over capacity 12) proves it optimal there. The node and
// pivot counts pin the dense simplex's pivot sequence; the groups pin the
// genesis assignment every same-seed run starts from.

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"

namespace curb::opt {
namespace {

CapInstance paper_instance() {
  const auto topo = net::internet2();
  const auto ctls = topo.nodes_of_kind(net::NodeKind::kController);
  const auto sws = topo.nodes_of_kind(net::NodeKind::kSwitch);
  CapInstance inst = CapInstance::uniform(sws.size(), ctls.size(), 4, 1.0, 12.0);
  const net::LinkModel lm;
  for (std::size_t i = 0; i < sws.size(); ++i) {
    for (std::size_t j = 0; j < ctls.size(); ++j) {
      inst.cs_delay[i][j] = lm.propagation_delay(topo.distance_km(sws[i], ctls[j])).as_millis_f();
    }
  }
  inst.max_cs_delay = 14.0;
  return inst;
}

TEST(PaperInstance, DenseSolveIsProvenAtTheCountingBound) {
  const CapInstance inst = paper_instance();
  ASSERT_EQ(inst.num_switches, 34u);
  ASSERT_EQ(inst.num_controllers, 16u);
  EXPECT_EQ(usage_lower_bound(inst), std::optional<double>{12.0});

  const CapResult r = solve_cap(inst);  // dense, no wall limit
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.stats.proven);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_FALSE(r.stats.used_greedy_fallback);
  EXPECT_EQ(r.stats.milp_nodes, 19u);
  EXPECT_EQ(r.stats.lp_iterations, 12389u);

  const std::vector<std::vector<std::size_t>> genesis_groups = {
      {0, 1, 2, 15}, {0, 1, 2, 5}, {0, 1, 2, 5, 6, 7}, {0, 1, 2, 5, 7},  // switches 0-3
      {0, 1, 2, 5, 6, 7}, {0, 1, 2, 5, 6, 7, 10}, {0, 1, 2, 15}, {0, 1, 2, 15},  // switches 4-7
      {0, 1, 2, 5}, {0, 1, 2, 15}, {0, 1, 14, 15}, {11, 13, 14, 15},  // switches 8-11
      {0, 12, 14, 15}, {12, 13, 14, 15}, {1, 2, 13, 14}, {2, 12, 13, 14},  // switches 12-15
      {12, 13, 14, 15}, {12, 13, 14, 15}, {12, 13, 14, 15}, {12, 13, 14, 15},  // switches 16-19
      {11, 12, 13, 14}, {11, 12, 13, 14}, {5, 11, 12, 13}, {5, 10, 11, 13},  // switches 20-23
      {5, 10, 11, 12}, {6, 7, 10, 11}, {6, 10, 11, 12}, {6, 7, 10, 11},  // switches 24-27
      {6, 7, 10, 11}, {6, 7, 10, 11}, {6, 7, 10, 11}, {5, 6, 7, 10},  // switches 28-31
      {5, 6, 7, 10}, {5, 6, 7, 10},  // switches 32-33
  };
  ASSERT_EQ(genesis_groups.size(), inst.num_switches);
  for (std::size_t i = 0; i < inst.num_switches; ++i) {
    EXPECT_EQ(r.assignment.group_of(i), genesis_groups[i]) << "switch " << i;
  }
  EXPECT_EQ(r.assignment.total_links(), 144u);
  EXPECT_EQ(r.assignment.controllers_used(), 12u);
  EXPECT_TRUE(r.assignment.feasible_for(inst));
}

}  // namespace
}  // namespace curb::opt
