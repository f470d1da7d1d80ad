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

TEST(PbftReplica, RejectsBadConfig) {
  sim::Simulator sim;
  const auto noop_send = [](std::uint32_t, const PbftMessage&) {};
  const auto noop_deliver = [](std::uint64_t, const std::vector<std::uint8_t>&) {};
  PbftReplica::Config too_small;
  too_small.group_size = 3;
  EXPECT_THROW(PbftReplica(too_small, sim, noop_send, noop_deliver),
               std::invalid_argument);
  PbftReplica::Config bad_index;
  bad_index.group_size = 4;
  bad_index.replica_index = 4;
  EXPECT_THROW(PbftReplica(bad_index, sim, noop_send, noop_deliver),
               std::invalid_argument);
}

TEST(PbftReplica, NonLeaderCannotPropose) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  EXPECT_THROW((void)group.replica(1).propose(payload("x")), std::logic_error);
  EXPECT_NO_THROW((void)group.replica(0).propose(payload("x")));
}

TEST(PbftReplica, AllHonestReplicasCommit) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  group.replica(0).propose(payload("tx-list-1"));
  sim.run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(group.delivered(i).size(), 1u) << "replica " << i;
    EXPECT_EQ(group.delivered(i)[0].sequence, 1u);
    EXPECT_EQ(group.delivered(i)[0].payload, payload("tx-list-1"));
  }
}

TEST(PbftReplica, SequentialProposalsDeliverInOrder) {
  sim::Simulator sim;
  PbftGroup group{sim, {}};
  group.replica(0).propose(payload("a"));
  group.replica(0).propose(payload("b"));
  group.replica(0).propose(payload("c"));
  sim.run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(group.delivered(i).size(), 3u);
    EXPECT_EQ(group.delivered(i)[0].payload, payload("a"));
    EXPECT_EQ(group.delivered(i)[1].payload, payload("b"));
    EXPECT_EQ(group.delivered(i)[2].payload, payload("c"));
    EXPECT_EQ(group.delivered(i)[2].sequence, 3u);
  }
}

TEST(PbftReplica, AllReplicasDeliverIdenticalHistories) {
  sim::Simulator sim;
  PbftGroup group{sim, {.group_size = 7}};
  for (int i = 0; i < 5; ++i) group.replica(0).propose(payload("p" + std::to_string(i)));
  sim.run();
  for (std::uint32_t i = 1; i < 7; ++i) {
    EXPECT_EQ(group.delivered(i), group.delivered(0)) << "replica " << i;
  }
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

TEST(PbftReplica, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    PbftGroup group{sim, {.group_size = 7}};
    for (int i = 0; i < 3; ++i) group.replica(0).propose(payload("d" + std::to_string(i)));
    sim.run();
    return group.messages_sent();
  };
  EXPECT_EQ(run_once(), run_once());
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

TEST(PbftReplica, GarbageCollectsExecutedSlots) {
  sim::Simulator sim;
  // Tiny gc window so collection is observable quickly.
  std::vector<std::unique_ptr<PbftReplica>> replicas;
  std::vector<std::size_t> delivered(4, 0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    PbftReplica::Config cfg;
    cfg.replica_index = i;
    cfg.group_size = 4;
    cfg.gc_window = 4;
    replicas.push_back(std::make_unique<PbftReplica>(
        cfg, sim,
        [&sim, &replicas, i](std::uint32_t dest, const PbftMessage& msg) {
          sim.schedule(sim::SimTime::millis(1),
                       [&replicas, dest, msg] { replicas[dest]->on_message(msg); });
        },
        [&delivered, i](std::uint64_t, const std::vector<std::uint8_t>&) {
          ++delivered[i];
        }));
  }
  for (int k = 0; k < 20; ++k) {
    replicas[0]->propose({static_cast<std::uint8_t>(k)});
    sim.run();
  }
  // Every proposal delivered exactly once on every replica despite GC.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(delivered[i], 20u) << i;
  EXPECT_EQ(replicas[0]->next_execute(), 21u);
}

TEST(PbftReplica, AdoptedViewPrunesStaleViewChangeVotes) {
  // Regression: view-change votes for views at or below the installed view
  // must be discarded on adoption, or spammed stale votes accumulate forever.
  sim::Simulator sim;
  const auto noop_send = [](std::uint32_t, const PbftMessage&) {};
  const auto noop_deliver = [](std::uint64_t, const std::vector<std::uint8_t>&) {};
  PbftReplica::Config cfg;
  cfg.group_size = 4;  // f = 1: a single vote per view never reaches f+1
  PbftReplica r{cfg, sim, noop_send, noop_deliver};

  for (std::uint64_t v = 2; v <= 10; ++v) {
    PbftMessage vc;
    vc.type = PbftMessage::Type::kViewChange;
    vc.view = v;
    vc.sender = 1;
    r.on_message(vc);
  }
  EXPECT_EQ(r.pending_view_change_views().size(), 9u);

  // A NEW-VIEW for view 11 (leader 11 % 4 == 3) installs the view; every
  // pending vote set is for a view <= 11 and must be pruned with it.
  PbftMessage nv;
  nv.type = PbftMessage::Type::kNewView;
  nv.view = 11;
  nv.sender = 3;
  r.on_message(nv);
  EXPECT_EQ(r.view(), 11u);
  EXPECT_TRUE(r.pending_view_change_views().empty());
}

TEST(PbftReplica, ReArmedSlotDoesNotFireStaleTimeout) {
  // Regression: a slot re-armed by a fresh proposal (the new leader reuses
  // the sequence it re-proposed during view change) must cancel the previous
  // timer, or the stale timer fires mid-round and forces a spurious view
  // change even though the round commits in time.
  sim::Simulator sim;
  std::vector<PbftMessage> sent;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> delivered;
  PbftReplica::Config cfg;
  cfg.replica_index = 1;
  cfg.group_size = 4;
  cfg.view_change_timeout = sim::SimTime::millis(500);
  PbftReplica r{cfg, sim,
                [&sent](std::uint32_t, const PbftMessage& msg) { sent.push_back(msg); },
                [&delivered](std::uint64_t seq, const std::vector<std::uint8_t>& p) {
                  delivered.emplace_back(seq, p);
                }};

  // t=0: replicas 0 and 2 demand view 1 carrying a prepared entry for seq 1.
  // Replica 1 joins at f+1, reaches the 2f+1 quorum, and — as leader of
  // view 1 — re-proposes seq 1, arming its timeout (fires at t=500ms).
  for (const std::uint32_t sender : {0u, 2u}) {
    PbftMessage vc;
    vc.type = PbftMessage::Type::kViewChange;
    vc.view = 1;
    vc.sender = sender;
    vc.prepared.push_back({1, payload_digest(payload("x")), payload("x")});
    r.on_message(vc);
  }
  ASSERT_EQ(r.view(), 1u);
  ASSERT_TRUE(r.is_leader());
  sent.clear();  // the join's own VIEW-CHANGE broadcast is legitimate

  // t=100ms: the leader proposes fresh content that lands on the same
  // sequence, re-arming the slot (new deadline t=600ms). The old timer must
  // die here.
  sim.run_until(100_ms);
  const std::uint64_t seq = r.propose(payload("y"));
  ASSERT_EQ(seq, 1u);

  // t=550ms: past the stale deadline but before the live one, the round
  // completes normally.
  sim.run_until(550_ms);
  for (const std::uint32_t sender : {2u, 3u}) {
    PbftMessage prepare;
    prepare.type = PbftMessage::Type::kPrepare;
    prepare.view = 1;
    prepare.sequence = 1;
    prepare.digest = payload_digest(payload("y"));
    prepare.sender = sender;
    r.on_message(prepare);
  }
  for (const std::uint32_t sender : {2u, 3u}) {
    PbftMessage commit;
    commit.type = PbftMessage::Type::kCommit;
    commit.view = 1;
    commit.sequence = 1;
    commit.digest = payload_digest(payload("y"));
    commit.sender = sender;
    r.on_message(commit);
  }
  sim.run();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 1u);
  EXPECT_EQ(delivered[0].second, payload("y"));
  EXPECT_EQ(r.view(), 1u);
  // The buggy stale timer fired at t=500ms and broadcast a VIEW-CHANGE for
  // view 2; with the fix no view-change message ever leaves the replica
  // after the initial adoption.
  for (const PbftMessage& msg : sent) {
    EXPECT_NE(msg.type, PbftMessage::Type::kViewChange)
        << "stale slot timeout triggered a spurious view change (view "
        << msg.view << ")";
  }
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

TEST(PbftMessage, WireSizeAccounting) {
  PbftMessage msg;
  msg.payload = payload("12345");
  const std::size_t base = msg.wire_size();
  msg.prepared.push_back({1, crypto::Hash256{}, payload("123")});
  EXPECT_GT(msg.wire_size(), base);
}

}  // namespace
}  // namespace curb::bft
