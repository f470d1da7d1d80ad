// Behaviour of the shared replica core, run against both engines: config
// checks, proposals, in-order execution, slot GC, view-change bookkeeping and
// slot timers must not differ between PBFT and HotStuff.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "curb/bft/consensus.hpp"
#include "curb/bft/group.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {
namespace {

using namespace curb::sim::literals;

std::vector<std::uint8_t> payload(std::string_view s) { return {s.begin(), s.end()}; }

class ReplicaCore : public ::testing::TestWithParam<ConsensusEngine> {
 protected:
  [[nodiscard]] PbftGroup::Options options(std::size_t group_size = 4) const {
    return {.group_size = group_size, .engine = GetParam()};
  }
};

TEST_P(ReplicaCore, RejectsBadConfig) {
  sim::Simulator sim;
  const auto noop_send = [](std::uint32_t, const PbftMessage&) {};
  const auto noop_deliver = [](std::uint64_t, const std::vector<std::uint8_t>&) {};
  ReplicaConfig too_small;
  too_small.group_size = 3;
  EXPECT_THROW((void)make_replica(GetParam(), too_small, sim, noop_send, noop_deliver),
               std::invalid_argument);
  ReplicaConfig bad_index;
  bad_index.group_size = 4;
  bad_index.replica_index = 4;
  EXPECT_THROW((void)make_replica(GetParam(), bad_index, sim, noop_send, noop_deliver),
               std::invalid_argument);
}

TEST_P(ReplicaCore, NonLeaderCannotPropose) {
  sim::Simulator sim;
  PbftGroup group{sim, options()};
  EXPECT_THROW((void)group.replica(1).propose(payload("x")), std::logic_error);
  EXPECT_NO_THROW((void)group.replica(0).propose(payload("x")));
}

TEST_P(ReplicaCore, AllHonestReplicasCommit) {
  sim::Simulator sim;
  PbftGroup group{sim, options()};
  group.replica(0).propose(payload("tx-list-1"));
  sim.run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(group.delivered(i).size(), 1u) << "replica " << i;
    EXPECT_EQ(group.delivered(i)[0].sequence, 1u);
    EXPECT_EQ(group.delivered(i)[0].payload, payload("tx-list-1"));
  }
}

TEST_P(ReplicaCore, SequentialProposalsDeliverInOrder) {
  sim::Simulator sim;
  PbftGroup group{sim, options()};
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

TEST_P(ReplicaCore, AllReplicasDeliverIdenticalHistories) {
  sim::Simulator sim;
  PbftGroup group{sim, options(7)};
  for (int i = 0; i < 5; ++i) group.replica(0).propose(payload("p" + std::to_string(i)));
  sim.run();
  ASSERT_EQ(group.delivered(0).size(), 5u);
  for (std::uint32_t i = 1; i < 7; ++i) {
    EXPECT_EQ(group.delivered(i), group.delivered(0)) << "replica " << i;
  }
}

TEST_P(ReplicaCore, DeterministicAcrossRuns) {
  const auto run_once = [this] {
    sim::Simulator sim;
    PbftGroup group{sim, options(7)};
    for (int i = 0; i < 3; ++i) group.replica(0).propose(payload("d" + std::to_string(i)));
    sim.run();
    return group.messages_sent();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(ReplicaCore, GarbageCollectsExecutedSlots) {
  // Past the GC window the oldest executed slots are dropped; nothing may be
  // delivered twice or skipped.
  sim::Simulator sim;
  PbftGroup group{sim, options()};
  const std::size_t proposals = ConsensusReplica::kGcWindow + 16;
  for (std::size_t k = 0; k < proposals; ++k) {
    group.replica(0).propose({static_cast<std::uint8_t>(k)});
    sim.run();
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(group.delivered(i).size(), proposals) << i;
    EXPECT_EQ(group.delivered(i).back().sequence, proposals) << i;
    EXPECT_EQ(group.replica(i).next_execute(), proposals + 1) << i;
  }
}

TEST_P(ReplicaCore, AdoptedViewPrunesStaleViewChangeVotes) {
  // Regression: view-change votes for views at or below the installed view
  // must be discarded on adoption, or spammed stale votes accumulate forever.
  sim::Simulator sim;
  ReplicaConfig cfg;
  cfg.group_size = 4;  // f = 1: a single vote per view never reaches f+1
  const auto r = make_replica(
      GetParam(), cfg, sim, [](std::uint32_t, const PbftMessage&) {},
      [](std::uint64_t, const std::vector<std::uint8_t>&) {});

  for (std::uint64_t v = 2; v <= 10; ++v) {
    PbftMessage vc;
    vc.type = PbftMessage::Type::kViewChange;
    vc.view = v;
    vc.sender = 1;
    r->on_message(vc);
  }
  EXPECT_EQ(r->pending_view_change_views().size(), 9u);

  // A NEW-VIEW for view 11 (leader 11 % 4 == 3) installs the view; every
  // pending vote set is for a view <= 11 and must be pruned with it.
  PbftMessage nv;
  nv.type = PbftMessage::Type::kNewView;
  nv.view = 11;
  nv.sender = 3;
  r->on_message(nv);
  EXPECT_EQ(r->view(), 11u);
  EXPECT_TRUE(r->pending_view_change_views().empty());
}

TEST_P(ReplicaCore, ReArmedSlotDoesNotFireStaleTimeout) {
  // Regression: a slot re-armed by a fresh proposal (the new leader reuses
  // the sequence it re-proposed during view change) must cancel the previous
  // timer, or the stale timer fires mid-round and forces a spurious view
  // change even though the round commits in time.
  sim::Simulator sim;
  std::vector<PbftMessage> sent;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> delivered;
  ReplicaConfig cfg;
  cfg.replica_index = 1;
  cfg.group_size = 4;
  cfg.view_change_timeout = sim::SimTime::millis(500);
  const auto r = make_replica(
      GetParam(), cfg, sim,
      [&sent](std::uint32_t, const PbftMessage& msg) { sent.push_back(msg); },
      [&delivered](std::uint64_t seq, const std::vector<std::uint8_t>& p) {
        delivered.emplace_back(seq, p);
      });

  // t=0: replicas 0 and 2 demand view 1 carrying a locked entry for seq 1.
  // Replica 1 joins at f+1, reaches the 2f+1 quorum, and — as leader of
  // view 1 — re-proposes seq 1, arming its timeout (fires at t=500ms).
  for (const std::uint32_t sender : {0u, 2u}) {
    PbftMessage vc;
    vc.type = PbftMessage::Type::kViewChange;
    vc.view = 1;
    vc.sender = sender;
    vc.prepared.push_back({1, payload_digest(payload("x")), payload("x")});
    r->on_message(vc);
  }
  ASSERT_EQ(r->view(), 1u);
  ASSERT_TRUE(r->is_leader());
  sent.clear();  // the join's own VIEW-CHANGE broadcast is legitimate

  // t=100ms: the leader proposes fresh content that lands on the same
  // sequence, re-arming the slot (new deadline t=600ms). The old timer must
  // die here.
  sim.run_until(100_ms);
  const std::uint64_t seq = r->propose(payload("y"));
  ASSERT_EQ(seq, 1u);

  // t=550ms: past the stale deadline but before the live one, replicas 2
  // and 3 cast every vote the engine needs, and the round completes.
  sim.run_until(550_ms);
  const std::vector<PbftMessage::Type> votes =
      GetParam() == ConsensusEngine::kPbft
          ? std::vector{PbftMessage::Type::kPrepare, PbftMessage::Type::kCommit}
          : std::vector{PbftMessage::Type::kVotePrepare, PbftMessage::Type::kVotePreCommit,
                        PbftMessage::Type::kVoteCommit};
  for (const PbftMessage::Type type : votes) {
    for (const std::uint32_t sender : {2u, 3u}) {
      PbftMessage vote;
      vote.type = type;
      vote.view = 1;
      vote.sequence = 1;
      vote.digest = payload_digest(payload("y"));
      vote.sender = sender;
      r->on_message(vote);
    }
  }
  sim.run();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 1u);
  EXPECT_EQ(delivered[0].second, payload("y"));
  EXPECT_EQ(r->view(), 1u);
  // A stale timer fires at t=500ms and broadcasts a VIEW-CHANGE for view 2;
  // no view-change message may leave the replica after the adoption.
  for (const PbftMessage& msg : sent) {
    EXPECT_NE(msg.type, PbftMessage::Type::kViewChange)
        << "stale slot timeout triggered a spurious view change (view " << msg.view << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ReplicaCore,
                         ::testing::Values(ConsensusEngine::kPbft, ConsensusEngine::kHotstuff),
                         [](const ::testing::TestParamInfo<ConsensusEngine>& info) {
                           return std::string{to_string(info.param)};
                         });

}  // namespace
}  // namespace curb::bft
