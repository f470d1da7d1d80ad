#include "curb/bft/hotstuff.hpp"

namespace curb::bft {

HotstuffReplica::HotstuffReplica(Config config, sim::Simulator& sim, SendFn send,
                                 DeliverFn deliver)
    : ConsensusReplica{std::move(config), sim, std::move(send), std::move(deliver),
                       PbftMessage::Type::kProposal, Phase::kPreCommitted,
                       "bft.hotstuff_msg"} {}

void HotstuffReplica::handle(const PbftMessage& msg) {
  switch (msg.type) {
    case PbftMessage::Type::kProposal: handle_proposal(msg); break;
    case PbftMessage::Type::kVotePrepare:
    case PbftMessage::Type::kVotePreCommit:
    case PbftMessage::Type::kVoteCommit: handle_vote(msg); break;
    case PbftMessage::Type::kQcPrepare:
    case PbftMessage::Type::kQcPreCommit:
    case PbftMessage::Type::kQcCommit: handle_qc(msg); break;
    default: break;  // PBFT traffic: not ours
  }
}

void HotstuffReplica::vote_to_leader(PbftMessage::Type type, std::uint64_t sequence,
                                     const crypto::Hash256& digest) {
  send_to(leader_index(), vote(type, sequence, digest));
}

bool HotstuffReplica::qc_valid(const PbftMessage& msg) const {
  // A QC must name >= 2f+1 distinct in-range voters. (A deployment would
  // verify a threshold signature here; the simulation checks structure.)
  VoteSet distinct;
  for (const std::uint32_t v : msg.qc_voters) {
    if (v < config_.group_size) distinct.insert(v);
  }
  return distinct.size() >= quorum();
}

void HotstuffReplica::handle_proposal(const PbftMessage& msg) {
  if (accept_proposal(msg) == nullptr) return;
  vote_to_leader(PbftMessage::Type::kVotePrepare, msg.sequence, msg.digest);
}

void HotstuffReplica::handle_vote(const PbftMessage& msg) {
  // Votes flow to the current leader only.
  if (!is_leader() || msg.view != view()) return;
  auto& s = slot(msg.sequence);
  if (!s.digest || *s.digest != msg.digest) return;

  // Each vote phase yields one QC, sent while the slot is still in the
  // phase the QC ends.
  const auto count = [&](VoteSet& votes, Phase before, PbftMessage::Type qc_type) {
    votes.insert(msg.sender);
    if (s.phase != before || votes.size() < quorum()) return;
    PbftMessage qc = vote(qc_type, msg.sequence, *s.digest);
    qc.qc_voters = votes.voters();
    broadcast(qc);
    handle_qc(qc);  // the leader processes its own QC locally
  };
  switch (msg.type) {
    case PbftMessage::Type::kVotePrepare:
      count(s.prepares, Phase::kIdle, PbftMessage::Type::kQcPrepare);
      break;
    case PbftMessage::Type::kVotePreCommit:
      count(s.precommits, Phase::kPrepared, PbftMessage::Type::kQcPreCommit);
      break;
    case PbftMessage::Type::kVoteCommit:
      count(s.commits, Phase::kPreCommitted, PbftMessage::Type::kQcCommit);
      break;
    default:
      break;
  }
}

void HotstuffReplica::handle_qc(const PbftMessage& msg) {
  if (msg.view != view() || !qc_valid(msg)) return;
  auto& s = slot(msg.sequence);
  if (!s.digest) {
    // QC for a proposal this replica never saw (e.g. joined late): adopt the
    // digest; the payload will arrive via NEW-VIEW re-proposals if needed.
    s.digest = msg.digest;
    obs_slot_accepted(msg.sequence, s);
  }
  if (*s.digest != msg.digest) return;

  switch (msg.type) {
    case PbftMessage::Type::kQcPrepare:
      if (s.phase != Phase::kIdle) break;
      s.phase = Phase::kPrepared;
      obs_slot_prepared(s);
      if (is_leader()) {
        s.precommits.insert(config_.replica_index);
      } else {
        vote_to_leader(PbftMessage::Type::kVotePreCommit, msg.sequence, msg.digest);
      }
      break;
    case PbftMessage::Type::kQcPreCommit:
      if (s.phase != Phase::kPrepared) break;
      s.phase = Phase::kPreCommitted;
      if (is_leader()) {
        s.commits.insert(config_.replica_index);
      } else {
        vote_to_leader(PbftMessage::Type::kVoteCommit, msg.sequence, msg.digest);
      }
      break;
    case PbftMessage::Type::kQcCommit:
      if (s.phase == Phase::kCommitted) break;
      if (s.phase == Phase::kIdle) obs_slot_prepared(s);  // it overtook the prepare QC
      commit(s);
      break;
    default:
      break;
  }
}

}  // namespace curb::bft
