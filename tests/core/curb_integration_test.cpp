#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "curb/core/codec.hpp"
#include "curb/core/simulation.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/crypto/sigcache.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

/// Paper-default options tuned for fast tests: Internet2-scale constraints
/// but fixed OP compute delay for determinism.
CurbOptions test_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = 10.0;
  opts.controller_capacity = 12.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.op_fixed_time = 20_ms;
  return opts;
}

/// A small fast deployment (8 controllers / 10 switches, several groups).
CurbSimulation small_sim(CurbOptions opts = test_options()) {
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  return CurbSimulation{net::random_geo_topology(8, 10, 99), opts};
}

/// The message CurbSimulation's constructor throws with `opts`, or "" if it
/// does not throw.
std::string construction_error(const CurbOptions& opts) {
  try {
    const CurbSimulation sim{opts};
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CurbNetwork, InitialSolveCutOffIsNotReportedAsInfeasible) {
  // Capacity 12 and D_cs 14 ms: feasible, but the greedy warm start finds
  // nothing, so a search stopped before its first node has no assignment.
  CurbOptions opts = test_options();
  opts.max_cs_delay_ms = 14.0;
  opts.op_wall_limit_ms = 1e-6;
  const std::string cut_off = construction_error(opts);
  EXPECT_NE(cut_off.find("no initial controller assignment found within op_wall_limit_ms"),
            std::string::npos)
      << cut_off;
  EXPECT_NE(cut_off.find("not proven infeasible"), std::string::npos) << cut_off;

  // No controller within 0.001 ms of a switch: infeasible, and proven so.
  opts.max_cs_delay_ms = 0.001;
  EXPECT_EQ(construction_error(opts), "CurbNetwork: initial controller assignment infeasible");
}

TEST(CurbNetwork, InitializationSatisfiesPaperConstraints) {
  CurbSimulation sim{test_options()};
  const auto& state = sim.network().genesis_state();
  const auto& opts = sim.network().options();
  // [C1.1] every switch governed by >= 3f+1 controllers.
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    EXPECT_GE(state.group(state.group_of_switch(sw)).members.size(), 3 * opts.f + 1);
  }
  // [C1.3] all C2S links within D_c,s.
  for (const auto& g : state.groups()) {
    for (const std::uint32_t sw : g.switches) {
      for (const std::uint32_t c : g.members) {
        EXPECT_LE(sim.network().cs_delay_ms(sw, c), opts.max_cs_delay_ms + 1e-9);
      }
    }
  }
  // [C1.2] capacity respected.
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_LE(state.assignment().switches_of(c).size(),
              static_cast<std::size_t>(opts.controller_capacity));
  }
  // finalCom has 3f+1 members; leader has the highest id.
  EXPECT_EQ(state.final_committee().size(), 3 * opts.f + 1);
  EXPECT_EQ(state.final_leader(), state.final_committee().back());
}

TEST(CurbNetwork, GenesisBlockSharedByAllControllers) {
  CurbSimulation sim{test_options()};
  const auto genesis_hash = sim.network().genesis_block().hash();
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_EQ(sim.network().controller(c).blockchain().genesis().hash(), genesis_hash);
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbIntegration, PacketInRoundAllAccepted) {
  CurbSimulation sim{test_options()};
  const RoundMetrics m = sim.run_packet_in_round();
  // 34 ingress PKT-INs plus the egress-switch PKT-INs for arriving packets.
  EXPECT_GE(m.issued, sim.network().num_switches());
  EXPECT_EQ(m.accepted, m.issued);
  EXPECT_GT(m.mean_latency_ms, 0.0);
  EXPECT_LT(m.mean_latency_ms, 500.0);  // all within the request timeout
  EXPECT_TRUE(sim.chains_consistent());
  EXPECT_GT(sim.chain_height(), 0u);
}

TEST(CurbIntegration, PacketsDeliveredEndToEnd) {
  CurbSimulation sim{test_options()};
  (void)sim.run_packet_in_round();
  // Every packet sent in the round must eventually reach its destination
  // host (flow rules installed at ingress + egress, PACKET_OUT released).
  std::size_t delivered = 0;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    delivered += sim.network().switch_node(sw).delivered_packets().size();
  }
  EXPECT_EQ(delivered, sim.network().num_switches());
}

TEST(CurbIntegration, FlowRulesRecordedOnChain) {
  CurbSimulation sim{test_options()};
  (void)sim.run_packet_in_round();
  const auto& chain = sim.network().controller(0).blockchain();
  EXPECT_GT(chain.total_transactions(), sim.network().num_switches());
  // Every accepted request must correspond to an on-chain transaction.
  std::size_t on_chain_pktin = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      if (tx.type() == chain::RequestType::kPacketIn) ++on_chain_pktin;
    }
  }
  EXPECT_GE(on_chain_pktin, sim.network().num_switches());
}

TEST(CurbIntegration, MultipleRoundsStayConsistent) {
  auto sim = small_sim();
  for (int round = 0; round < 3; ++round) {
    const RoundMetrics m = sim.run_packet_in_round();
    EXPECT_EQ(m.accepted, m.issued) << "round " << round;
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto sim = small_sim();
    (void)sim.run_packet_in_round();
    (void)sim.run_packet_in_round();
    return std::make_pair(sim.total_messages(), sim.chain_height());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CurbIntegration, ReassignmentProbeRoundCompletes) {
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.reass_always_solve = true;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const RoundMetrics m = sim.run_reassignment_round(3);
  EXPECT_EQ(m.issued, 3u);
  EXPECT_EQ(m.accepted, m.issued);
  EXPECT_TRUE(sim.chains_consistent());
  EXPECT_GT(sim.chain_height(), 0u);
}

TEST(CurbIntegration, ConcurrentConflictingAccusationsEventuallyResolve) {
  // Three switches accuse three DIFFERENT controllers at once. The
  // reassignments race, but the monotone byzantine set guarantees every
  // accusation is eventually absorbed (paper exp. 2 removes three byzantine
  // nodes in one round; across groups it may take a few chained blocks).
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  // Accuse three distinct non-leader controllers.
  std::vector<std::uint32_t> accused;
  for (std::uint32_t c = 0; c < sim.network().num_controllers() && accused.size() < 3;
       ++c) {
    bool is_leader = false;
    for (const auto& g : state.groups()) is_leader |= g.leader == c;
    if (!is_leader) accused.push_back(c);
  }
  ASSERT_EQ(accused.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim.network().switch_node(i).request_reassignment({accused[i]});
  }
  sim.network().simulator().run_until(sim.network().simulator().now() +
                                      sim::SimTime::seconds(10));

  const auto& final_state = sim.network().controller(0).state();
  for (const std::uint32_t a : accused) {
    EXPECT_TRUE(std::find(final_state.byzantine().begin(), final_state.byzantine().end(),
                          a) != final_state.byzantine().end())
        << "controller " << a << " not excluded";
    EXPECT_FALSE(final_state.assignment().controller_used(a));
  }
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbByzantine, BadConfigControllerDetectedAndRemoved) {
  auto sim = small_sim();
  // Pick a controller serving switch 0 that is NOT the group leader.
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_bad_config(true);

  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();

  // Some switch reported the liar...
  bool reported = false;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    reported |= sim.network().switch_node(sw).reported_byzantine().contains(victim);
  }
  EXPECT_TRUE(reported);
  // ...and the committed reassignment excludes it from every group.
  bool reassigned = false;
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    if (c == victim) continue;
    const auto& cur = sim.network().controller(c).state();
    if (cur.epoch() > 0) {
      reassigned = true;
      EXPECT_FALSE(cur.assignment().controller_used(victim));
      EXPECT_TRUE(std::find(cur.byzantine().begin(), cur.byzantine().end(), victim) !=
                  cur.byzantine().end());
    }
  }
  EXPECT_TRUE(reassigned);
}

TEST(CurbByzantine, SilentFollowerDetectedAndRemoved) {
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);

  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();
  (void)sim.run_packet_in_round();

  bool excluded = false;
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    if (c == victim) continue;
    const auto& cur = sim.network().controller(c).state();
    if (cur.epoch() > 0 && !cur.assignment().controller_used(victim)) excluded = true;
  }
  EXPECT_TRUE(excluded);
  // The network still serves requests after the reassignment.
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.accepted, 0u);
}

TEST(CurbByzantine, SilentLeaderRecovered) {
  auto sim = small_sim();
  const auto& state = sim.network().genesis_state();
  const std::uint32_t victim = state.group(state.group_of_switch(0)).leader;
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);

  for (int round = 0; round < 4; ++round) (void)sim.run_packet_in_round();

  // Requests to the victim's group eventually succeed again (view change or
  // reassignment recovered the group).
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
}

TEST(CurbByzantine, LazyControllerFlaggedAfterWindow) {
  CurbOptions opts = test_options();
  opts.max_lazy_rounds = 3;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};

  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kLazy);
  sim.network().controller(victim).set_lazy_range(250_ms, 400_ms);

  for (int round = 0; round < 6; ++round) (void)sim.run_packet_in_round();

  bool reported = false;
  for (std::uint32_t sw = 0; sw < sim.network().num_switches(); ++sw) {
    reported |= sim.network().switch_node(sw).reported_byzantine().contains(victim);
  }
  EXPECT_TRUE(reported);
}

TEST(CurbModes, ParallelBeatsNonParallelThroughput) {
  CurbOptions parallel = test_options();
  parallel.parallel = true;
  CurbOptions serial = test_options();
  serial.parallel = false;

  CurbSimulation p{parallel};
  CurbSimulation s{serial};
  // Average a few rounds each.
  double tps_p = 0.0;
  double tps_s = 0.0;
  for (int i = 0; i < 2; ++i) tps_p += p.run_packet_in_round().throughput_tps;
  for (int i = 0; i < 2; ++i) tps_s += s.run_packet_in_round().throughput_tps;
  EXPECT_GT(tps_p, tps_s);
}

TEST(CurbScalability, MessagesPerRoundGrowLinearly) {
  // Theorem 1: message complexity O(N). Doubling network size should scale
  // messages by ~2x, far below the ~4x a flat O(N^2) protocol would show.
  CurbOptions opts;
  opts.controller_capacity = 10.0;
  opts.op_time_mode = OpTimeMode::kFixed;

  CurbSimulation small{net::random_geo_topology(8, 16, 7), opts};
  CurbSimulation big{net::random_geo_topology(16, 32, 7), opts};
  const auto m_small = small.run_packet_in_round();
  const auto m_big = big.run_packet_in_round();
  ASSERT_GT(m_small.messages, 0u);
  const double ratio =
      static_cast<double>(m_big.messages) / static_cast<double>(m_small.messages);
  EXPECT_LT(ratio, 3.2);  // linear-ish (2x size -> ~2x messages, slack for overlap)
  EXPECT_GT(ratio, 1.2);
}

TEST(CurbIntegration, SignedTransactionsVerify) {
  // With signature verification on, every transaction carries a real ECDSA
  // signature from its handling leader, and the chain verifies end to end.
  CurbOptions opts = test_options();
  opts.verify_signatures = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
  const auto& chain = sim.network().controller(0).blockchain();
  std::size_t verified = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      ASSERT_TRUE(tx.signature().has_value());
      EXPECT_TRUE(
          tx.verify(sim.network().controller(tx.controller_id()).public_key()));
      // And a wrong key must not verify.
      const auto other = (tx.controller_id() + 1) % sim.network().num_controllers();
      EXPECT_FALSE(tx.verify(sim.network().controller(other).public_key()));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

TEST(CurbIntegration, MerkleProofForServedRequest) {
  // Verifiability: a switch (or auditor) can check any flow update against
  // just the block header via a Merkle inclusion proof.
  auto sim = small_sim();
  (void)sim.run_packet_in_round();
  const auto& chain = sim.network().controller(0).blockchain();
  ASSERT_GT(chain.height(), 0u);
  const auto& block = chain.at(1);
  ASSERT_FALSE(block.transactions().empty());
  const auto proof = block.merkle_proof(0);
  EXPECT_TRUE(
      chain::Block::verify_inclusion(block.transactions()[0], proof, block.header()));
}

TEST(CurbIntegration, HotstuffEngineServesRounds) {
  // The paper notes Curb works with other BFT engines (Tendermint,
  // HotStuff); swap in the linear-communication engine and re-check the
  // round invariants plus the message saving.
  CurbOptions pbft_opts = test_options();
  pbft_opts.controller_capacity = 8.0;
  pbft_opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbOptions hs_opts = pbft_opts;
  hs_opts.consensus_engine = bft::ConsensusEngine::kHotstuff;

  const auto topo = net::random_geo_topology(8, 10, 99);
  CurbSimulation pbft_sim{topo, pbft_opts};
  CurbSimulation hs_sim{topo, hs_opts};

  const RoundMetrics pm = pbft_sim.run_packet_in_round();
  const RoundMetrics hm = hs_sim.run_packet_in_round();
  EXPECT_EQ(hm.accepted, hm.issued);
  EXPECT_TRUE(hs_sim.chains_consistent());
  // Same workload, fewer consensus messages with leader-aggregated voting.
  EXPECT_LT(hm.messages, pm.messages);
}

TEST(CurbIntegration, HotstuffSurvivesSilentFollower) {
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.consensus_engine = bft::ConsensusEngine::kHotstuff;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const auto& state = sim.network().genesis_state();
  const auto& group = state.group(state.group_of_switch(0));
  const std::uint32_t victim =
      group.members[0] == group.leader ? group.members[1] : group.members[0];
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);
  for (int round = 0; round < 3; ++round) (void)sim.run_packet_in_round();
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.accepted, 0u);
  EXPECT_TRUE(sim.chains_consistent());
}

TEST(CurbNorthbound, PolicyDenyBlocksTrafficEverywhere) {
  auto sim = small_sim();
  // Baseline: host 0 -> host 3 flows.
  sim.network().switch_node(0).host_send(3);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  const std::size_t delivered_before =
      sim.network().switch_node(3).delivered_packets().size();
  EXPECT_EQ(delivered_before, 1u);

  // An application denies 0 -> 3 via ANY controller's northbound API.
  sdn::PolicyRule rule{0, 3, sdn::PolicyRule::Action::kDeny, 10};
  sim.network().controller(2).submit_policy(rule);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);

  // Every controller's replicated policy table agrees.
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_FALSE(sim.network().controller(c).policy_table().allows(0, 3)) << c;
    EXPECT_TRUE(sim.network().controller(c).policy_table().allows(3, 0)) << c;
  }
  // And the update is on the chain.
  bool on_chain = false;
  const auto& chain_db = sim.network().controller(0).blockchain();
  for (std::uint64_t h = 1; h <= chain_db.height(); ++h) {
    for (const auto& tx : chain_db.at(h).transactions()) {
      on_chain |= tx.type() == chain::RequestType::kPolicyUpdate;
    }
  }
  EXPECT_TRUE(on_chain);

  // New flow setups for the denied pair get a drop rule, not a path.
  sim.network().switch_node(0).reset_flow_table();
  sim.network().switch_node(0).host_send(3);
  sim.network().switch_node(0).host_send(4);  // unrelated pair still works
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  EXPECT_EQ(sim.network().switch_node(3).delivered_packets().size(), delivered_before);
  EXPECT_EQ(sim.network().switch_node(4).delivered_packets().size(), 1u);
}

TEST(CurbNorthbound, PolicyRemoveRestoresTraffic) {
  auto sim = small_sim();
  const sdn::PolicyRule rule{0, 3, sdn::PolicyRule::Action::kDeny, 10};
  sim.network().controller(0).submit_policy(rule);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  ASSERT_FALSE(sim.network().controller(1).policy_table().allows(0, 3));

  sim.network().controller(0).submit_policy(rule, Controller::PolicyOp::kRemove);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    EXPECT_TRUE(sim.network().controller(c).policy_table().allows(0, 3)) << c;
  }
  sim.network().switch_node(0).host_send(3);
  sim.network().simulator().run_until(sim.network().simulator().now() + 3_s);
  EXPECT_EQ(sim.network().switch_node(3).delivered_packets().size(), 1u);
}

TEST(CurbObservability, DisabledByDefault) {
  CurbSimulation sim{test_options()};
  EXPECT_EQ(sim.network().observatory(), nullptr);
  // Instrumented paths must still work with the observatory off.
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_EQ(m.accepted, m.issued);
}

TEST(CurbObservability, PacketInRoundProducesProtocolSpanTree) {
  CurbOptions opts = test_options();
  opts.observability = true;
  CurbSimulation sim{opts};
  ASSERT_NE(sim.network().observatory(), nullptr);
  (void)sim.run_packet_in_round();

  const obs::Tracer& tracer = sim.network().observatory()->tracer;
  std::map<std::string, std::size_t> by_name;
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : tracer.spans()) {
    ++by_name[s.name];
    by_id[s.id] = &s;
  }
  // Every protocol stage of the Curb pipeline shows up at least once.
  for (const char* stage :
       {"pkt_in", "intra_pbft", "intra_pbft.pre_prepare", "intra_pbft.prepare",
        "intra_pbft.commit", "agree", "final_pbft", "final_pbft.prepare",
        "final_pbft.commit", "block_commit", "reply_quorum"}) {
    EXPECT_GT(by_name[stage], 0u) << "missing protocol stage span: " << stage;
  }
  // Phase spans nest under their slot span on the same replica track.
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "intra_pbft.prepare" && s.name != "intra_pbft.commit") continue;
    ASSERT_NE(s.parent, 0u) << s.name << " must not be a root span";
    const obs::SpanRecord& parent = *by_id.at(s.parent);
    EXPECT_EQ(parent.name, "intra_pbft");
    EXPECT_EQ(parent.track, s.track);
    EXPECT_GE(s.start, parent.start);
  }
  // reply_quorum hangs directly off the switch's pkt_in request span.
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name != "reply_quorum") continue;
    ASSERT_NE(s.parent, 0u);
    EXPECT_EQ(by_id.at(s.parent)->name, "pkt_in");
    EXPECT_EQ(by_id.at(s.parent)->track, s.track);
  }
  // Cross-controller keyed stages closed exactly once (nothing left open).
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.name == "agree" || s.name == "block_commit") {
      EXPECT_FALSE(s.open) << s.name << " span never closed";
    }
  }
  // Tracks exist for switches, controllers, and the shared protocol rail.
  std::set<std::string> tracks{tracer.tracks().begin(), tracer.tracks().end()};
  EXPECT_TRUE(tracks.contains("protocol"));
  EXPECT_TRUE(tracks.contains("sw-0"));
  EXPECT_TRUE(tracks.contains("ctrl-0"));
}

TEST(CurbObservability, MetricsCoverHotPaths) {
  CurbOptions opts = test_options();
  opts.observability = true;
  CurbSimulation sim{opts};
  const RoundMetrics m = sim.run_packet_in_round();
  sim.network().snapshot_runtime_metrics();

  obs::MetricsRegistry& reg = sim.network().observatory()->metrics;
  EXPECT_EQ(reg.counter("core.rounds").value(), 1u);
  EXPECT_EQ(reg.histogram("core.request_latency_us").count(), m.accepted);
  EXPECT_GT(reg.counter("net.messages", {{"category", "REPLY"}}).value(), 0u);
  EXPECT_GT(reg.counter("net.bytes", {{"category", "REPLY"}}).value(), 0u);
  EXPECT_GT(reg.histogram("net.delay_us", {{"category", "REPLY"}}).count(), 0u);
  EXPECT_GT(reg.gauge("sim.events_executed").value(), 0.0);
  EXPECT_GT(reg.gauge("sim.queue_high_water").value(), 0.0);
  // Per-controller chain metrics follow the shared chain height.
  EXPECT_EQ(reg.gauge("chain.height", {{"owner", "ctrl-0"}}).value(),
            static_cast<double>(sim.chain_height()));
}

TEST(CurbObservability, TraceByteIdenticalAcrossIdenticalRuns) {
  auto run_once = [] {
    CurbOptions opts = test_options();
    opts.observability = true;
    auto sim = small_sim(opts);
    (void)sim.run_packet_in_round();
    (void)sim.run_packet_in_round();
    sim.network().snapshot_runtime_metrics();
    std::stringstream trace;
    std::stringstream jsonl;
    std::stringstream metrics;
    obs::write_chrome_trace(sim.network().observatory()->tracer, nullptr, trace);
    obs::write_spans_jsonl(sim.network().observatory()->tracer, jsonl);
    obs::write_metrics_json(sim.network().observatory()->metrics, metrics);
    return trace.str() + "\x1e" + jsonl.str() + "\x1e" + metrics.str();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once());
}

TEST(CurbObservability, ViewChangeLeavesNoOpenSlotSpans) {
  CurbOptions opts = test_options();
  opts.observability = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  const auto& state = sim.network().genesis_state();
  const std::uint32_t victim = state.group(state.group_of_switch(0)).leader;
  sim.network().controller(victim).set_behavior(bft::Behavior::kSilent);
  for (int round = 0; round < 4; ++round) (void)sim.run_packet_in_round();

  const obs::Tracer& tracer = sim.network().observatory()->tracer;
  bool saw_view_change = false;
  for (const obs::SpanRecord& s : tracer.spans()) {
    saw_view_change |= s.name == "intra_pbft.view_change";
    // Slot/phase spans on the silenced group must have been reset, not
    // leaked open, when the view changed.
    if (s.name == "intra_pbft.prepare" || s.name == "intra_pbft.commit") {
      EXPECT_FALSE(s.open) << "phase span leaked open across view change";
    }
  }
  EXPECT_TRUE(saw_view_change);
  EXPECT_GT(sim.network()
                .observatory()
                ->metrics.counter("bft.view_changes", {{"layer", "intra_pbft"}})
                .value(),
            0u);
}

TEST(CurbSimulationApi, ActiveSwitchSubsetting) {
  CurbSimulation sim{test_options()};
  sim.set_active_switches(4);
  EXPECT_EQ(sim.active_switches(), 4u);
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GE(m.issued, 4u);
  EXPECT_LE(m.issued, 8u);  // 4 ingress + at most 4 egress PKT-INs
  sim.set_active_switches(9999);
  EXPECT_EQ(sim.active_switches(), sim.network().num_switches());
}

/// Restore the process-wide signature cache to its default state no matter
/// how the test exits — other suites in this binary share the singleton.
struct SigCacheGuard {
  ~SigCacheGuard() {
    crypto::SigCache::instance().set_enabled(true);
    crypto::SigCache::instance().clear();
  }
};

TEST(CurbIntegration, SigCacheOnOffRunsAreByteIdentical) {
  // The cache only short-circuits a pure function: a hit returns exactly
  // what re-verification would. Same-seed runs with the cache on vs. off
  // must therefore be byte-identical in every simulation-visible output —
  // trace spans, chain state, and round metrics. (Runtime *gauges* differ
  // by design — sigcache hit/miss counters are host-side telemetry — so the
  // comparison covers spans, not the metrics registry; see DESIGN.md §15.)
  const SigCacheGuard guard;
  auto run_once = [](bool cache_on) {
    crypto::SigCache::instance().set_enabled(cache_on);
    crypto::SigCache::instance().clear();
    CurbOptions opts = test_options();
    opts.verify_signatures = true;
    opts.observability = true;
    opts.controller_capacity = 8.0;
    opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
    CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
    const RoundMetrics m = sim.run_packet_in_round();
    std::stringstream out;
    obs::write_spans_jsonl(sim.network().observatory()->tracer, out);
    out << "\x1e" << m.issued << ',' << m.accepted << ',' << m.messages << ','
        << m.mean_latency_ms << ',' << m.round_duration_ms;
    const auto& chain = sim.network().controller(0).blockchain();
    out << "\x1e" << crypto::to_hex(chain.at(chain.height()).hash());
    return out.str();
  };
  const std::string with_cache = run_once(true);
  const std::string without_cache = run_once(false);
  EXPECT_EQ(with_cache, without_cache);
  // And the cached run actually exercised the cache.
  crypto::SigCache::instance().set_enabled(true);
  crypto::SigCache::instance().clear();
  const auto before = crypto::SigCache::instance().stats();
  (void)run_once(true);
  const auto after = crypto::SigCache::instance().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.misses, before.misses);
}

TEST(CurbIntegration, CorruptFaultsNeverPoisonTheSignatureCache) {
  // Corruption flips payload bytes after signing; the corrupted tuple's
  // cache key (keyed by digest) differs from the pristine one, so a
  // tampered message can neither reuse a pristine verdict nor poison it.
  // The run must complete with consistent chains, and every committed
  // transaction must still verify through the cache afterwards.
  const SigCacheGuard guard;
  crypto::SigCache::instance().set_enabled(true);
  crypto::SigCache::instance().clear();
  CurbOptions opts = test_options();
  opts.verify_signatures = true;
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.fault_spec = "corrupt(p=0.3,cat=AGREE)";
  opts.fault_seed = 7;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  const RoundMetrics m = sim.run_packet_in_round();
  EXPECT_GT(m.issued, 0u);
  const auto& chain = sim.network().controller(0).blockchain();
  std::size_t verified = 0;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    for (const auto& tx : chain.at(h).transactions()) {
      ASSERT_TRUE(tx.signature().has_value());
      EXPECT_TRUE(
          tx.verify(sim.network().controller(tx.controller_id()).public_key()));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
  // All controllers agree on the committed prefix despite the corruption.
  const std::uint64_t height = chain.height();
  for (std::uint32_t c = 1; c < sim.network().num_controllers(); ++c) {
    const auto& other = sim.network().controller(c).blockchain();
    const std::uint64_t min_height = std::min(height, other.height());
    EXPECT_EQ(other.at(min_height).hash(), chain.at(min_height).hash());
  }
}

TEST(CurbIntegration, CorruptFinalAgreeNeverCommitsBadSignatures) {
  // Corruption of FINAL-AGREE flips bytes of the serialized block, and a
  // flipped signature leaves the block hash unchanged (a transaction id does
  // not cover its signature). Block verdicts are therefore keyed on the
  // digest of the block bytes: a corrupted copy must neither reuse an honest
  // copy's verdict to complete a quorum nor fix a false verdict for the
  // honest copies that follow it.
  const SigCacheGuard guard;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    crypto::SigCache::instance().clear();
    CurbOptions opts = test_options();
    opts.verify_signatures = true;
    opts.controller_capacity = 8.0;
    opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
    opts.fault_spec = "corrupt(p=0.3,cat=FINAL-AGREE)";
    opts.fault_seed = seed;
    CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
    (void)sim.run_packet_in_rounds(3);
    std::size_t committed = 0;
    std::size_t bad = 0;
    for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
      const auto& chain = sim.network().controller(c).blockchain();
      for (std::uint64_t h = 1; h <= chain.height(); ++h) {
        for (const auto& tx : chain.at(h).transactions()) {
          ++committed;
          if (!tx.verify(sim.network().controller(tx.controller_id()).public_key())) ++bad;
        }
      }
    }
    EXPECT_GT(committed, 0u) << "fault seed " << seed;
    EXPECT_EQ(bad, 0u) << "fault seed " << seed << ": " << bad << " of " << committed
                       << " committed transactions fail signature verification";
  }
}

TEST(CurbIntegration, AtMostTwoMerkleBuildsPerAppliedBlock) {
  // The network decodes and Merkle-checks each distinct FINAL-AGREE copy
  // once for all its controllers (CurbNetwork::validated_block), and each
  // controller rebuilds the tree once more in Blockchain::append. Copies
  // arriving after the block is applied are recognised from the header
  // alone. The proposer also builds the tree once in Block::create.
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    (void)sim.run_packet_in_rounds(3);
  }
  std::uint64_t heights = 0;
  std::uint64_t proposed = 0;
  std::set<crypto::Hash256> distinct;
  for (std::uint32_t c = 0; c < sim.network().num_controllers(); ++c) {
    const chain::Blockchain& chain = sim.network().controller(c).blockchain();
    heights += chain.height();
    proposed += sim.network().controller(c).stats().blocks_proposed;
    for (std::uint64_t h = 1; h <= chain.height(); ++h) distinct.insert(chain.at(h).hash());
  }
  ASSERT_GT(heights, 0u);
  EXPECT_LE(profiler.calls("crypto.merkle_build"), heights + distinct.size() + proposed)
      << "sum of chain heights " << heights << ", distinct blocks " << distinct.size()
      << ", blocks proposed " << proposed;
}

TEST(CurbIntegration, ControllersShareOneCopyOfEachBlock) {
  // Every chain stores the block object the network decoded, so after a
  // fault-free run all controllers hold the same object at every height.
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  (void)sim.run_packet_in_rounds(3);
  ASSERT_TRUE(sim.chains_consistent());
  const CurbNetwork& network = sim.network();
  const chain::Blockchain& first = network.controller(0).blockchain();
  ASSERT_GT(first.height(), 0u);
  for (std::uint32_t c = 1; c < network.num_controllers(); ++c) {
    for (std::uint64_t h = 0; h <= first.height(); ++h) {
      EXPECT_EQ(&network.controller(c).blockchain().at(h), &first.at(h))
          << "controller " << c << ", height " << h;
    }
  }
}

TEST(CurbIntegration, UndecodableConfirmedTxListIsNeverSealedNorForwarded) {
  // A txList confirmed by an AGREE quorum is decoded once, at quorum. One
  // that does not decode must not stop the final leader from sealing the
  // others, and is never sealed itself. The next applied block drops it
  // before the committee handover that block may trigger, so the handover
  // forwards only the decodable backlog.
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  CurbNetwork& network = sim.network();
  const AssignmentState& genesis = network.genesis_state();
  ASSERT_EQ(genesis.f(), 1u);  // quorums of f+1 = 2
  const std::vector<std::uint32_t> committee = genesis.final_committee();
  const std::uint32_t leader = genesis.final_leader();
  const std::uint32_t member = committee.front();
  ASSERT_NE(member, leader);

  const GroupInfo& group = genesis.group(0);
  ASSERT_GE(group.members.size(), 2u);
  const std::uint32_t instance = AssignmentState::instance_id_of(group.members);
  const chain::Transaction tx{chain::RequestType::kPacketIn, group.switches.front(),
                              group.members.front(), 1, {0x01, 0x02}};
  const std::vector<std::uint8_t> decodable = serialize_tx_list({tx});
  const std::vector<std::uint8_t> undecodable{0xff, 0xff, 0xff, 0x7f};  // count too large
  ASSERT_THROW((void)deserialize_tx_list(undecodable), std::invalid_argument);

  // The leader's Final-PBFT proposals and the member's AGREEs.
  std::vector<std::vector<std::uint8_t>> proposals;
  std::vector<std::vector<std::uint8_t>> forwarded;
  network.bus().set_send_observer([&](const auto& record, const CurbMessage& msg,
                                      const std::string&) {
    const auto* envelope = std::get_if<PbftEnvelope>(&msg);
    if (record.from == network.controller_topo_node(leader) && envelope != nullptr &&
        envelope->instance == PbftEnvelope::kFinalInstance &&
        envelope->message.type == bft::PbftMessage::Type::kPrePrepare) {
      proposals.push_back(envelope->message.payload);
    }
    const auto* agree = std::get_if<AgreeMsg>(&msg);
    if (record.from == network.controller_topo_node(member) && agree != nullptr) {
      forwarded.push_back(agree->tx_list);
    }
  });
  const auto confirm = [&](std::uint32_t to, const std::vector<std::uint8_t>& tx_list) {
    for (std::size_t i = 0; i < 2; ++i) {
      const std::uint32_t sender = group.members[i];
      network.controller(to).on_message(network.controller_topo_node(sender),
                                        CurbMessage{AgreeMsg{instance, sender, tx_list}});
    }
  };

  confirm(leader, undecodable);
  EXPECT_EQ(network.controller(leader).stats().blocks_proposed, 0u);
  confirm(leader, decodable);
  EXPECT_EQ(network.controller(leader).stats().blocks_proposed, 1u);
  ASSERT_FALSE(proposals.empty());
  for (const auto& proposal : proposals) {
    EXPECT_EQ(chain::Block::deserialize(proposal).transactions(),
              std::vector<chain::Transaction>{tx});
  }

  // Block 1 moves every switch to controllers 4-7, which changes the final
  // committee: the member hands its backlog over when it applies the block.
  opt::Assignment moved{genesis.assignment().num_switches(),
                        genesis.assignment().num_controllers()};
  for (std::size_t sw = 0; sw < moved.num_switches(); ++sw) {
    for (std::size_t c = 4; c < 8; ++c) moved.set(sw, c, true);
  }
  const AssignmentState next = AssignmentState::build(moved, genesis.f(), 1, {}, &genesis);
  ASSERT_NE(next.final_committee(), committee);
  const chain::Transaction reassign{chain::RequestType::kReassign, group.switches.front(),
                                    leader, 2, next.serialize()};
  const chain::Block block = chain::Block::create(
      1, network.genesis_block().hash(), {reassign}, 0, leader);
  confirm(member, undecodable);
  confirm(member, decodable);
  ASSERT_TRUE(forwarded.empty());
  for (std::size_t i = 1; i <= 2; ++i) {
    network.controller(member).on_message(
        network.controller_topo_node(committee[i]),
        CurbMessage{FinalAgreeMsg{committee[i], block.serialize()}});
  }
  ASSERT_EQ(network.controller(member).blockchain().height(), 1u);
  const auto& incoming = next.final_committee();
  EXPECT_EQ(forwarded.size(),
            incoming.size() - static_cast<std::size_t>(std::count(incoming.begin(),
                                                                  incoming.end(), member)));
  for (const auto& tx_list : forwarded) EXPECT_EQ(tx_list, decodable);
}

TEST(CurbIntegration, FinalAgreeReusesOnlyByteIdenticalCopies) {
  // A FINAL-AGREE copy byte-identical to one that passed validation is
  // counted without being checked again. A corrupted copy can carry the same
  // header, and so the same block hash: it must be validated in full and
  // rejected, never counted as a vote for the validated block.
  CurbOptions opts = test_options();
  opts.controller_capacity = 8.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  CurbSimulation sim{net::random_geo_topology(8, 6, 99), opts};
  CurbNetwork& network = sim.network();
  const std::vector<std::uint32_t> committee = network.genesis_state().final_committee();
  ASSERT_EQ(network.genesis_state().f(), 1u);  // quorum of f+1 = 2 copies
  ASSERT_GE(committee.size(), 3u);
  std::uint32_t outsider = 0;
  while (std::find(committee.begin(), committee.end(), outsider) != committee.end()) {
    ++outsider;
  }
  ASSERT_LT(outsider, network.num_controllers());
  Controller& controller = network.controller(outsider);

  const std::vector<std::uint8_t> config{0xc0, 0xff, 0xee, 0x42};
  const chain::Transaction tx{chain::RequestType::kPacketIn, 0, committee[0], 1, config};
  const chain::Block block = chain::Block::create(
      1, controller.blockchain().genesis().hash(), {tx}, 0, committee[0]);
  const std::vector<std::uint8_t> valid = block.serialize();
  std::vector<std::uint8_t> corrupted = valid;
  const auto at = std::search(corrupted.begin(), corrupted.end(), config.begin(), config.end());
  ASSERT_NE(at, corrupted.end());
  at[config.size() - 1] ^= 0x01;
  ASSERT_EQ(chain::Block::deserialize_header(corrupted).hash(), block.hash());
  ASSERT_FALSE(chain::Block::deserialize(corrupted).well_formed());

  const auto deliver = [&](std::uint32_t sender, const std::vector<std::uint8_t>& bytes) {
    controller.on_message(network.controller_topo_node(sender),
                          CurbMessage{FinalAgreeMsg{sender, bytes}});
  };
  deliver(committee[0], valid);
  EXPECT_EQ(controller.blockchain().height(), 0u) << "one valid copy is not a quorum";
  deliver(committee[1], corrupted);
  EXPECT_EQ(controller.blockchain().height(), 0u) << "a corrupted copy was counted";
  deliver(committee[2], valid);
  ASSERT_EQ(controller.blockchain().height(), 1u);
  EXPECT_EQ(controller.blockchain().tip().transactions().front().config(), config);
}

}  // namespace
}  // namespace curb::core
