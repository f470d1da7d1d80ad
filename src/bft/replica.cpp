#include "curb/bft/replica.hpp"

namespace curb::bft {

PbftReplica::PbftReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver)
    : ConsensusReplica{std::move(config), sim, std::move(send), std::move(deliver),
                       PbftMessage::Type::kPrePrepare, Phase::kPrepared, "bft.pbft_msg"} {}

void PbftReplica::handle(const PbftMessage& msg) {
  switch (msg.type) {
    case PbftMessage::Type::kPrePrepare: handle_pre_prepare(msg); break;
    case PbftMessage::Type::kPrepare: handle_prepare(msg); break;
    case PbftMessage::Type::kCommit: handle_commit(msg); break;
    default: break;  // HotStuff traffic belongs to the other engine
  }
}

void PbftReplica::handle_pre_prepare(const PbftMessage& msg) {
  SlotState* s = accept_proposal(msg);
  if (s == nullptr) return;
  s->prepares.insert(config_.replica_index);
  s->prepares.insert(msg.sender);  // the pre-prepare is the leader's prepare vote
  broadcast(vote(PbftMessage::Type::kPrepare, msg.sequence, msg.digest));
  check_prepared(msg.sequence);
}

void PbftReplica::handle_prepare(const PbftMessage& msg) {
  if (msg.view != view()) return;
  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return;  // vote for a different digest
  // A prepare that beats the pre-prepare is remembered; check_prepared waits
  // for the digest.
  s.prepares.insert(msg.sender);
  check_prepared(msg.sequence);
}

void PbftReplica::check_prepared(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // Prepared: pre-prepare accepted + 2f+1 prepare votes (own included).
  if (s.phase != Phase::kIdle || !s.digest || s.prepares.size() < quorum()) return;
  s.phase = Phase::kPrepared;
  s.commits.insert(config_.replica_index);
  obs_slot_prepared(s);
  broadcast(vote(PbftMessage::Type::kCommit, sequence, *s.digest));
  check_committed(sequence);
}

void PbftReplica::handle_commit(const PbftMessage& msg) {
  if (msg.view != view()) return;
  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return;
  s.commits.insert(msg.sender);
  check_committed(msg.sequence);
}

void PbftReplica::check_committed(std::uint64_t sequence) {
  auto& s = slot(sequence);
  if (s.phase == Phase::kPrepared && s.commits.size() >= quorum()) commit(s);
}

}  // namespace curb::bft
