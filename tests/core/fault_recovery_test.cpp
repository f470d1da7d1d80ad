// Regression tests for the protocol bugfix sweep: switch-side group-update
// quorum bookkeeping (duplicate senders, leader election, epoch-vote
// pruning) and controller crash/recovery from the replicated blockchain.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "curb/core/simulation.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions fast_options() {
  CurbOptions opts;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.op_fixed_time = 20_ms;
  return opts;
}

CurbSimulation small_sim() {
  return CurbSimulation{net::random_geo_topology(8, 10, 99), fast_options()};
}

GroupUpdateMsg update_for(const SwitchNode& sw, std::uint64_t epoch,
                          std::vector<std::uint32_t> new_group,
                          std::uint32_t sender) {
  GroupUpdateMsg msg;
  msg.controller_id = sender;
  msg.switch_id = sw.id();
  msg.epoch = epoch;
  msg.new_group = std::move(new_group);
  return msg;
}

TEST(SwitchNodeGroupUpdate, DuplicateSenderDoesNotCountTowardQuorum) {
  CurbSimulation sim = small_sim();
  SwitchNode& sw = sim.network().switch_node(0);
  const std::vector<std::uint32_t> group = sw.agent().controller_group();
  ASSERT_GE(group.size(), 2u);
  const std::uint64_t epoch = sw.current_epoch();

  // The same controller voting twice must stay one vote (f + 1 = 2 needed).
  const GroupUpdateMsg vote = update_for(sw, epoch + 1, group, group[0]);
  sw.on_message(net::NodeId{0}, CurbMessage{vote});
  sw.on_message(net::NodeId{0}, CurbMessage{vote});
  EXPECT_EQ(sw.current_epoch(), epoch);

  // A second distinct controller completes the quorum.
  sw.on_message(net::NodeId{0}, CurbMessage{update_for(sw, epoch + 1, group, group[1])});
  EXPECT_EQ(sw.current_epoch(), epoch + 1);
}

TEST(SwitchNodeGroupUpdate, AdoptionUsesLowestIdAsLeader) {
  CurbSimulation sim = small_sim();
  SwitchNode& sw = sim.network().switch_node(0);
  const std::vector<std::uint32_t> group = sw.agent().controller_group();
  ASSERT_GE(group.size(), 2u);
  const std::uint32_t lowest = *std::min_element(group.begin(), group.end());

  // Rotate so the wire order does NOT lead with the lowest id — the leader
  // hint must come from min_element, not from new_group.front().
  std::vector<std::uint32_t> rotated{group.begin() + 1, group.end()};
  rotated.push_back(group.front());
  ASSERT_NE(rotated.front(), lowest);

  const std::uint64_t epoch = sw.current_epoch();
  sw.on_message(net::NodeId{0},
                CurbMessage{update_for(sw, epoch + 1, rotated, group[0])});
  sw.on_message(net::NodeId{0},
                CurbMessage{update_for(sw, epoch + 1, rotated, group[1])});
  ASSERT_EQ(sw.current_epoch(), epoch + 1);
  ASSERT_TRUE(sw.agent().group_leader().has_value());
  EXPECT_EQ(*sw.agent().group_leader(), lowest);
}

TEST(SwitchNodeGroupUpdate, AdoptionPrunesStaleEpochVotes) {
  CurbSimulation sim = small_sim();
  SwitchNode& sw = sim.network().switch_node(0);
  const std::vector<std::uint32_t> group = sw.agent().controller_group();
  ASSERT_GE(group.size(), 2u);
  const std::uint64_t epoch = sw.current_epoch();

  // Single (sub-quorum) votes at two future epochs linger as pending state.
  sw.on_message(net::NodeId{0}, CurbMessage{update_for(sw, epoch + 1, group, group[0])});
  sw.on_message(net::NodeId{0}, CurbMessage{update_for(sw, epoch + 3, group, group[1])});
  EXPECT_EQ(sw.pending_group_update_epochs().size(), 2u);

  // Adopting epoch + 5 makes every earlier vote set obsolete; the fixed
  // adopt_group prunes all entries <= the adopted epoch, not just its own.
  sw.on_message(net::NodeId{0}, CurbMessage{update_for(sw, epoch + 5, group, group[0])});
  sw.on_message(net::NodeId{0}, CurbMessage{update_for(sw, epoch + 5, group, group[1])});
  EXPECT_EQ(sw.current_epoch(), epoch + 5);
  EXPECT_TRUE(sw.pending_group_update_epochs().empty());
}

TEST(ControllerRecovery, CrashedControllerRecoversFromDonorChain) {
  CurbSimulation sim = small_sim();
  CurbNetwork& network = sim.network();

  const RoundMetrics before = sim.run_packet_in_round();
  EXPECT_EQ(before.accepted, before.issued);

  network.controller(1).crash();
  EXPECT_TRUE(network.controller(1).crashed());
  EXPECT_FALSE(network.controller(1).has_blockchain());

  // One faulty controller (f = 1): the control plane keeps serving.
  const RoundMetrics during = sim.run_packet_in_round();
  EXPECT_GT(during.accepted, 0u);

  // Recover from a live peer's replicated chain.
  network.controller(1).restart_from(network.controller(0).blockchain());
  EXPECT_FALSE(network.controller(1).crashed());
  ASSERT_TRUE(network.controller(1).has_blockchain());
  EXPECT_EQ(network.controller(1).blockchain().tip().hash(),
            network.controller(0).blockchain().tip().hash());
  EXPECT_EQ(network.controller(1).blockchain().total_transactions(),
            network.controller(0).blockchain().total_transactions());

  const RoundMetrics after = sim.run_packet_in_round();
  EXPECT_GT(after.accepted, 0u);
  // The recovered controller keeps appending alongside the others: its tip
  // must still sit on the common prefix (same hash at the common height).
  const auto& donor = network.controller(0).blockchain();
  const auto& revived = network.controller(1).blockchain();
  const std::uint64_t common = std::min(donor.height(), revived.height());
  EXPECT_EQ(donor.at(common).hash(), revived.at(common).hash());
}

TEST(ControllerRecovery, RestartedControllerSharesTheDonorsBlocksAndCatchesUp) {
  CurbSimulation sim = small_sim();
  CurbNetwork& network = sim.network();
  (void)sim.run_packet_in_round();
  network.controller(1).crash();
  (void)sim.run_packet_in_round();

  // Recovery appends the donor's block objects (each still checked) instead
  // of copies.
  const chain::Blockchain& donor = network.controller(0).blockchain();
  network.controller(1).restart_from(donor);
  const chain::Blockchain& revived = network.controller(1).blockchain();
  ASSERT_EQ(revived.height(), donor.height());
  for (std::uint64_t h = 0; h <= donor.height(); ++h) {
    EXPECT_EQ(&revived.at(h), &donor.at(h)) << "height " << h;
  }

  const RoundMetrics after = sim.run_packet_in_round();
  EXPECT_EQ(after.accepted, after.issued);
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(ControllerRecovery, CrashedControllerIgnoresTraffic) {
  CurbSimulation sim = small_sim();
  CurbNetwork& network = sim.network();
  network.controller(2).crash();
  // Crash twice is a no-op; messages and rounds must not resurrect state.
  network.controller(2).crash();
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.accepted, 0u);
  EXPECT_TRUE(network.controller(2).crashed());
  EXPECT_FALSE(network.controller(2).has_blockchain());
  // restart_from on a live controller is likewise a no-op.
  network.controller(0).restart_from(network.controller(3).blockchain());
  EXPECT_FALSE(network.controller(0).crashed());
}

}  // namespace
}  // namespace curb::core
