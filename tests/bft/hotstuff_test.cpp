#include "curb/bft/hotstuff.hpp"

#include <gtest/gtest.h>

#include "curb/bft/group.hpp"
#include "curb/bft/replica.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {
namespace {

using namespace curb::sim::literals;

PbftGroup::Options hs_options(std::size_t n = 4) {
  PbftGroup::Options opts;
  opts.group_size = n;
  opts.engine = ConsensusEngine::kHotstuff;
  return opts;
}

std::vector<std::uint8_t> payload(std::string_view s) { return {s.begin(), s.end()}; }

TEST(Hotstuff, ToleratesFSilentFollowers) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options(7)};  // f = 2
  group.replica(3).set_behavior(Behavior::kSilent);
  group.replica(6).set_behavior(Behavior::kSilent);
  group.replica(0).propose(payload("resilient"));
  sim.run_until(400_ms);
  EXPECT_GE(group.replicas_delivered_at_least(1), 5u);
}

TEST(Hotstuff, EquivocatingLeaderCannotCommitConflicting) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork"));
  sim.run_until(300_ms);
  EXPECT_EQ(group.replicas_delivered_at_least(1), 0u);
}

TEST(Hotstuff, EquivocatingLeaderDeposedByViewChange) {
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork"));
  sim.run_until(3000_ms);
  EXPECT_GE(group.replica(1).view(), 1u);
  EXPECT_EQ(group.replica(1).view(), group.replica(2).view());
}

TEST(Hotstuff, LinearMessageComplexity) {
  // Per decision, HotStuff-style exchanges O(n) messages; PBFT O(n^2).
  auto count = [](ConsensusEngine engine, std::size_t n) {
    sim::Simulator sim;
    PbftGroup::Options opts;
    opts.group_size = n;
    opts.engine = engine;
    PbftGroup group{sim, opts};
    group.replica(0).propose({0x01});
    sim.run_until(400_ms);
    return group.messages_sent();
  };
  for (const std::size_t n : {7u, 13u}) {
    EXPECT_LT(count(ConsensusEngine::kHotstuff, n), count(ConsensusEngine::kPbft, n))
        << "n=" << n;
  }
  // Growth is ~linear: quadrupling n should far less than 16x the messages.
  const double small = static_cast<double>(count(ConsensusEngine::kHotstuff, 4));
  const double big = static_cast<double>(count(ConsensusEngine::kHotstuff, 16));
  EXPECT_LT(big / small, 8.0);
}

TEST(Hotstuff, IgnoresPbftTraffic) {
  // PBFT message types reach a HotStuff replica only by mistake. Neither a
  // leader's PRE-PREPARE (which carries a payload like a PROPOSAL) nor a
  // COMMIT vote may send, arm a timer, open a slot or move the view.
  sim::Simulator sim;
  std::vector<PbftMessage> sent;
  std::size_t delivered = 0;
  ReplicaConfig cfg;
  cfg.replica_index = 1;
  HotstuffReplica r{cfg, sim,
                    [&sent](std::uint32_t, const PbftMessage& msg) { sent.push_back(msg); },
                    [&delivered](std::uint64_t, const std::vector<std::uint8_t>&) {
                      ++delivered;
                    }};
  const auto message = [](PbftMessage::Type type, std::uint32_t sender,
                          std::string_view body) {
    PbftMessage msg;
    msg.type = type;
    msg.sequence = 1;
    msg.sender = sender;
    msg.payload = payload(body);
    msg.digest = payload_digest(msg.payload);
    return msg;
  };

  r.on_message(message(PbftMessage::Type::kPrePrepare, 0, "x"));
  for (std::uint32_t sender : {0u, 2u, 3u}) {
    r.on_message(message(PbftMessage::Type::kCommit, sender, "x"));
  }
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(sim.pending_events(), 0u) << "a slot timeout was armed";
  EXPECT_EQ(r.view(), 0u);
  EXPECT_EQ(r.next_execute(), 1u);
  EXPECT_EQ(delivered, 0u);

  // Slot 1 is still open: a PROPOSAL with another payload is accepted and
  // answered with one VOTE-PREPARE, to the leader.
  r.on_message(message(PbftMessage::Type::kProposal, 0, "y"));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PbftMessage::Type::kVotePrepare);
}

TEST(Hotstuff, RejectsForgedQc) {
  // A QC naming fewer than 2f+1 distinct voters must be ignored.
  sim::Simulator sim;
  PbftGroup group{sim, hs_options()};
  PbftMessage qc;
  qc.type = PbftMessage::Type::kQcCommit;
  qc.view = 0;
  qc.sequence = 1;
  qc.sender = 0;
  qc.qc_voters = {0, 0, 0};  // duplicates: only one distinct voter
  group.replica(1).on_message(qc);
  sim.run_until(50_ms);
  EXPECT_TRUE(group.delivered(1).empty());
}

TEST(MakeReplica, FactoryProducesRequestedEngine) {
  sim::Simulator sim;
  const auto noop_send = [](std::uint32_t, const PbftMessage&) {};
  const auto noop_deliver = [](std::uint64_t, const std::vector<std::uint8_t>&) {};
  auto pbft = make_replica(ConsensusEngine::kPbft, {}, sim, noop_send, noop_deliver);
  auto hs = make_replica(ConsensusEngine::kHotstuff, {}, sim, noop_send, noop_deliver);
  EXPECT_NE(dynamic_cast<PbftReplica*>(pbft.get()), nullptr);
  EXPECT_NE(dynamic_cast<HotstuffReplica*>(hs.get()), nullptr);
}

}  // namespace
}  // namespace curb::bft
