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
  // Regression: a slot re-armed by a re-proposal after a view change must
  // cancel the timer of its previous round, or the stale timer fires
  // mid-round and forces a spurious view change even though the round
  // commits in time.
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

  // t=0: the view-0 leader proposes "x" at seq 1, arming the slot's timer
  // (fires at t=500ms).
  PbftMessage proposal;
  proposal.type = GetParam() == ConsensusEngine::kPbft ? PbftMessage::Type::kPrePrepare
                                                       : PbftMessage::Type::kProposal;
  proposal.sequence = 1;
  proposal.payload = payload("x");
  proposal.digest = payload_digest(proposal.payload);
  proposal.sender = 0;
  r->on_message(proposal);

  // t=100ms: replicas 0 and 2 demand view 1 carrying a locked "x" at seq 1.
  // Replica 1 joins at f+1, reaches the 2f+1 quorum, and, as leader of
  // view 1, re-proposes seq 1, re-arming its timer (new deadline t=600ms).
  // The view-0 timer must die here.
  sim.run_until(100_ms);
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
  // A fresh proposal takes the next sequence after the carried one.
  ASSERT_EQ(r->propose(payload("y")), 2u);

  // t=550ms: past the stale deadline but before the live ones, replicas 2
  // and 3 cast every vote the engine needs for both slots, and they commit.
  sim.run_until(550_ms);
  const std::vector<PbftMessage::Type> votes =
      GetParam() == ConsensusEngine::kPbft
          ? std::vector{PbftMessage::Type::kPrepare, PbftMessage::Type::kCommit}
          : std::vector{PbftMessage::Type::kVotePrepare, PbftMessage::Type::kVotePreCommit,
                        PbftMessage::Type::kVoteCommit};
  for (const auto& [seq, body] : {std::pair{1u, payload("x")}, std::pair{2u, payload("y")}}) {
    for (const PbftMessage::Type type : votes) {
      for (const std::uint32_t sender : {2u, 3u}) {
        PbftMessage vote;
        vote.type = type;
        vote.view = 1;
        vote.sequence = seq;
        vote.digest = payload_digest(body);
        vote.sender = sender;
        r->on_message(vote);
      }
    }
  }
  sim.run();

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], std::pair(std::uint64_t{1}, payload("x")));
  EXPECT_EQ(delivered[1], std::pair(std::uint64_t{2}, payload("y")));
  EXPECT_EQ(r->view(), 1u);
  // A stale timer fires at t=500ms and broadcasts a VIEW-CHANGE for view 2;
  // no view-change message may leave the replica after the adoption.
  for (const PbftMessage& msg : sent) {
    EXPECT_NE(msg.type, PbftMessage::Type::kViewChange)
        << "stale slot timeout triggered a spurious view change (view " << msg.view << ")";
  }
}

TEST_P(ReplicaCore, NewLeaderDoesNotReissueACarriedSequence) {
  // View 0: leader 0 proposes "x" at seq 1, and replicas 0, 2 and 3 lock it
  // (PBFT prepared, HotStuff pre-committed) but never commit it: every
  // commit-phase message is lost, and replica 1, the leader of view 1, hears
  // nothing of view 0. The slot timers force view 1, whose NEW-VIEW carries
  // seq 1 to a leader that holds no slot for it. Its view-change hook then
  // proposes "y", as the controller's rehandle_pending does, before the
  // carried entry is re-proposed: "y" must take seq 2, and every replica
  // must deliver "x" at 1 and "y" at 2.
  sim::Simulator sim;
  constexpr std::uint32_t kSize = 4;
  std::vector<std::unique_ptr<ConsensusReplica>> replicas;
  std::vector<std::vector<PbftGroup::Delivery>> delivered(kSize);
  const auto lost = [](std::uint32_t dest, const PbftMessage& msg) {
    if (msg.view != 0) return false;
    return dest == 1 || msg.type == PbftMessage::Type::kCommit ||
           msg.type == PbftMessage::Type::kVoteCommit;
  };
  for (std::uint32_t i = 0; i < kSize; ++i) {
    ReplicaConfig cfg;
    cfg.replica_index = i;
    cfg.group_size = kSize;
    cfg.view_change_timeout = sim::SimTime::millis(500);
    replicas.push_back(make_replica(
        GetParam(), cfg, sim,
        [&](std::uint32_t dest, const PbftMessage& msg) {
          if (lost(dest, msg)) return;
          sim.schedule(sim::SimTime::millis(1),
                       [&replicas, dest, msg] { replicas[dest]->on_message(msg); });
        },
        [&delivered, i](std::uint64_t seq, const std::vector<std::uint8_t>& p) {
          delivered[i].push_back({seq, p});
        }));
  }
  for (auto& replica : replicas) {
    replica->set_on_view_change([&replica](std::uint64_t) {
      if (replica->is_leader()) (void)replica->propose(payload("y"));
    });
  }

  (void)replicas[0]->propose(payload("x"));
  sim.run_until(sim::SimTime::millis(5000));

  ASSERT_EQ(replicas[1]->view(), 1u);
  const std::vector<PbftGroup::Delivery> expected{{1, payload("x")}, {2, payload("y")}};
  for (std::uint32_t i = 0; i < kSize; ++i) {
    EXPECT_EQ(delivered[i], expected) << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ReplicaCore,
                         ::testing::Values(ConsensusEngine::kPbft, ConsensusEngine::kHotstuff),
                         [](const ::testing::TestParamInfo<ConsensusEngine>& info) {
                           return std::string{to_string(info.param)};
                         });

}  // namespace
}  // namespace curb::bft
