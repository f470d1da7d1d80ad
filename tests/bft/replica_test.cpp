#include "curb/bft/replica.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "curb/bft/group.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {
namespace {

using namespace curb::sim::literals;

std::vector<std::uint8_t> payload(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(PbftReplica, ToleratesOneSilentFollower) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  group.replica(2).set_behavior(Behavior::kSilent);
  group.replica(0).propose(payload("resilient"));
  sim.run_until(400_ms);  // before view-change timeout
  // The 3 honest replicas (incl. leader) still commit; the silent one also
  // receives enough commits from honest peers to commit locally.
  EXPECT_GE(group.replicas_delivered_at_least(1), 3u);
}

TEST(PbftReplica, ToleratesFSilentInLargerGroup) {
  sim::Simulator sim;
  PbftGroup group{sim, {.group_size = 10}};  // f = 3
  group.replica(3).set_behavior(Behavior::kSilent);
  group.replica(5).set_behavior(Behavior::kSilent);
  group.replica(8).set_behavior(Behavior::kSilent);
  group.replica(0).propose(payload("tolerate-3"));
  sim.run_until(400_ms);
  EXPECT_GE(group.replicas_delivered_at_least(1), 7u);
}

TEST(PbftReplica, FullySilentLeaderIsInvisibleToPbft) {
  // A leader that never sends the pre-prepare leaves followers with nothing
  // to time out on — PBFT alone cannot detect it. Curb handles this case at
  // the s-agent layer (request timeout -> RE-ASS), which is exactly why the
  // paper adds reassignment on top of consensus.
  sim::Simulator sim;
  PbftGroup group{sim, {.view_change_timeout = sim::SimTime::millis(100)}};
  group.replica(0).set_behavior(Behavior::kSilent);
  group.replica(0).propose(payload("never-sent"));
  sim.run_until(2000_ms);
  EXPECT_EQ(group.replicas_delivered_at_least(1), 0u);
  EXPECT_EQ(group.replica(1).view(), 0u);
}

TEST(PbftReplica, SilentMinorityCannotStopCommit) {
  // With exactly f silent followers the honest 2f+1 commit without them.
  sim::Simulator sim;
  PbftGroup group{sim, {.group_size = 7}};  // f = 2
  group.replica(4).set_behavior(Behavior::kSilent);
  group.replica(6).set_behavior(Behavior::kSilent);
  group.replica(0).propose(payload("commit-anyway"));
  sim.run_until(400_ms);
  EXPECT_GE(group.replicas_delivered_at_least(1), 5u);
}

TEST(PbftReplica, EquivocatingLeaderBlocksQuorumBeforeTimeout) {
  sim::Simulator sim;
  PbftGroup group{sim, {.view_change_timeout = sim::SimTime::millis(200)}};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork-attempt"));
  sim.run_until(150_ms);
  // No quorum forms on either conflicting digest before the timeout.
  EXPECT_EQ(group.replicas_delivered_at_least(1), 0u);
}

TEST(PbftReplica, EquivocatingLeaderTriggersViewChange) {
  sim::Simulator sim;
  PbftGroup group{sim, {.view_change_timeout = sim::SimTime::millis(100)}};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("fork-attempt"));
  sim.run_until(3000_ms);
  // Followers who accepted a pre-prepare time out and depose the leader.
  EXPECT_GE(group.replica(1).view(), 1u);
  EXPECT_EQ(group.replica(1).view(), group.replica(2).view());
  EXPECT_EQ(group.replica(1).view(), group.replica(3).view());
  EXPECT_NE(group.replica(1).leader_index(), 0u);
}

TEST(PbftReplica, NewLeaderCanProposeAfterViewChange) {
  sim::Simulator sim;
  PbftGroup group{sim, {.view_change_timeout = sim::SimTime::millis(100)}};
  group.replica(0).set_behavior(Behavior::kEquivocate);
  group.replica(0).propose(payload("doomed"));
  sim.run_until(3000_ms);
  ASSERT_GE(group.replica(1).view(), 1u);
  ConsensusReplica& new_leader = group.current_leader();
  ASSERT_NE(new_leader.index(), 0u);
  new_leader.propose(payload("recovered"));
  sim.run_until(4000_ms);
  // The three honest replicas deliver the new proposal.
  std::size_t delivered = 0;
  for (std::uint32_t i = 1; i < 4; ++i) {
    for (const auto& d : group.delivered(i)) {
      if (d.payload == payload("recovered")) ++delivered;
    }
  }
  EXPECT_GE(delivered, 2u);
}

TEST(PbftReplica, LazyFollowerDelaysButDoesNotPreventCommit) {
  sim::Simulator sim;
  PbftGroup group{sim, {.group_size = 4}};
  group.replica(3).set_behavior(Behavior::kLazy);
  group.replica(0).propose(payload("slow-friend"));
  sim.run_until(450_ms);
  EXPECT_GE(group.replicas_delivered_at_least(1), 3u);
}

TEST(PbftReplica, MessageComplexityIsQuadratic) {
  // One consensus round in a group of size c exchanges O(c^2) messages —
  // the constant the paper's Theorem 1 builds on.
  std::vector<std::uint64_t> counts;
  for (const std::size_t c : {4u, 7u, 10u, 13u}) {
    sim::Simulator sim;
    PbftGroup group{sim, {.group_size = c}};
    group.replica(0).propose(payload("count-me"));
    sim.run_until(400_ms);
    counts.push_back(group.messages_sent());
  }
  // Quadratic growth: messages(13)/messages(4) should be ~(13/4)^2 ~ 10.
  EXPECT_GT(static_cast<double>(counts[3]) / static_cast<double>(counts[0]), 6.0);
  // And each round is at least (pre-prepare) c-1 + (prepare+commit) ~2c(c-1).
  EXPECT_GE(counts[0], 3u + 2u * 3u * 3u / 2u);
}

TEST(PbftReplica, IgnoresMessagesFromUnknownSenders) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  PbftMessage msg;
  msg.type = PbftMessage::Type::kPrepare;
  msg.sender = 99;  // out of range
  EXPECT_NO_THROW(group.replica(0).on_message(msg));
  msg.sender = 0;  // own index: must also be ignored
  EXPECT_NO_THROW(group.replica(0).on_message(msg));
}

TEST(PbftReplica, IgnoresPrePrepareFromNonLeader) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  PbftMessage msg;
  msg.type = PbftMessage::Type::kPrePrepare;
  msg.view = 0;
  msg.sequence = 1;
  msg.sender = 2;  // not the leader of view 0
  msg.payload = payload("evil");
  msg.digest = payload_digest(msg.payload);
  group.replica(1).on_message(msg);
  sim.run_until(50_ms);
  EXPECT_TRUE(group.delivered(1).empty());
}

TEST(PbftReplica, IgnoresMalformedDigest) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  PbftMessage msg;
  msg.type = PbftMessage::Type::kPrePrepare;
  msg.view = 0;
  msg.sequence = 1;
  msg.sender = 0;
  msg.payload = payload("data");
  msg.digest = crypto::Hash256{};  // wrong digest
  group.replica(1).on_message(msg);
  sim.run_until(50_ms);
  EXPECT_TRUE(group.delivered(1).empty());
}

TEST(PbftReplica, DuplicateVotesDoNotFormAQuorum) {
  // A replayed vote must never count twice: with the other followers silent,
  // replica 1 holds only its own vote and the leader's, however often the
  // leader's PREPARE and COMMIT arrive.
  sim::Simulator sim;
  std::vector<PbftMessage> sent;
  std::size_t delivered = 0;
  PbftReplica::Config cfg;
  cfg.replica_index = 1;
  cfg.group_size = 4;  // f = 1: prepared and committed need 3 distinct votes
  PbftReplica r{cfg, sim,
                [&sent](std::uint32_t, const PbftMessage& msg) { sent.push_back(msg); },
                [&delivered](std::uint64_t, const std::vector<std::uint8_t>&) {
                  ++delivered;
                }};
  const auto vote = [](PbftMessage::Type type, std::uint32_t sender) {
    PbftMessage msg;
    msg.type = type;
    msg.view = 0;
    msg.sequence = 1;
    msg.digest = payload_digest(payload("x"));
    msg.sender = sender;
    return msg;
  };
  const auto commits_sent = [&sent] {
    return std::count_if(sent.begin(), sent.end(), [](const PbftMessage& msg) {
      return msg.type == PbftMessage::Type::kCommit;
    });
  };

  PbftMessage pre_prepare = vote(PbftMessage::Type::kPrePrepare, 0);
  pre_prepare.payload = payload("x");
  r.on_message(pre_prepare);
  for (int i = 0; i < 5; ++i) r.on_message(vote(PbftMessage::Type::kPrepare, 0));
  for (int i = 0; i < 5; ++i) r.on_message(vote(PbftMessage::Type::kCommit, 0));
  EXPECT_EQ(commits_sent(), 0) << "replayed PREPAREs prepared the slot";
  EXPECT_EQ(delivered, 0u);

  // A second follower's PREPARE is a real third vote; the replayed COMMITs
  // still leave the commit quorum one distinct vote short.
  r.on_message(vote(PbftMessage::Type::kPrepare, 2));
  EXPECT_EQ(commits_sent(), 3);  // prepared: COMMIT to each of the 3 peers
  for (int i = 0; i < 5; ++i) r.on_message(vote(PbftMessage::Type::kCommit, 0));
  EXPECT_EQ(delivered, 0u) << "replayed COMMITs committed the slot";
  r.on_message(vote(PbftMessage::Type::kCommit, 3));
  EXPECT_EQ(delivered, 1u);
}

TEST(PbftReplica, IgnoresHotStuffMessages) {
  // HotStuff message types reach a PBFT replica only by mistake. Neither a
  // leader's PROPOSAL (which carries a payload like a PRE-PREPARE) nor a
  // COMMIT vote may send, arm a timer, open a slot or move the view.
  sim::Simulator sim;
  std::vector<PbftMessage> sent;
  std::size_t delivered = 0;
  PbftReplica::Config cfg;
  cfg.replica_index = 1;
  cfg.group_size = 4;
  PbftReplica r{cfg, sim,
                [&sent](std::uint32_t, const PbftMessage& msg) { sent.push_back(msg); },
                [&delivered](std::uint64_t, const std::vector<std::uint8_t>&) {
                  ++delivered;
                }};
  const auto message = [](PbftMessage::Type type, std::uint32_t sender,
                          std::string_view body) {
    PbftMessage msg;
    msg.type = type;
    msg.view = 0;
    msg.sequence = 1;
    msg.sender = sender;
    msg.payload = payload(body);
    msg.digest = payload_digest(msg.payload);
    return msg;
  };

  r.on_message(message(PbftMessage::Type::kProposal, 0, "x"));
  for (std::uint32_t sender : {0u, 2u, 3u}) {
    r.on_message(message(PbftMessage::Type::kVoteCommit, sender, "x"));
  }
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(sim.pending_events(), 0u) << "a slot timeout was armed";
  EXPECT_EQ(r.view(), 0u);
  EXPECT_TRUE(r.pending_view_change_views().empty());
  EXPECT_EQ(r.next_execute(), 1u);
  EXPECT_EQ(delivered, 0u);

  // Slot 1 is still open: a PRE-PREPARE with another payload is accepted
  // and answered with a PREPARE to each of the 3 peers.
  r.on_message(message(PbftMessage::Type::kPrePrepare, 0, "y"));
  EXPECT_EQ(sent.size(), 3u);
  EXPECT_TRUE(std::all_of(sent.begin(), sent.end(), [](const PbftMessage& msg) {
    return msg.type == PbftMessage::Type::kPrepare;
  }));
}

TEST(PbftMessage, WireSizeAccounting) {
  PbftMessage msg;
  msg.payload = payload("12345");
  const std::size_t base = msg.wire_size();
  msg.prepared.push_back({1, crypto::Hash256{}, payload("123")});
  EXPECT_GT(msg.wire_size(), base);
}

}  // namespace
}  // namespace curb::bft
