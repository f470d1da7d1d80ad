#pragma once

#include <cstdint>

#include "curb/bft/consensus.hpp"
#include "curb/bft/message.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {

/// HotStuff-style replica (basic, non-chained): the leader drives three
/// vote phases (prepare / pre-commit / commit); replicas send their votes
/// TO THE LEADER ONLY, and the leader broadcasts a quorum certificate per
/// phase. Per-decision communication is O(n) messages versus PBFT's O(n²)
/// — the linear-communication property HotStuff is known for. QCs carry
/// voter-id lists in place of threshold signatures (simulation substitute).
///
/// View change is the shared replica core's (timeout -> VIEW-CHANGE with
/// locked entries -> NEW-VIEW from the next leader); a slot is locked once
/// pre-committed. It is the rare path and its cost does not affect the
/// per-decision complexity.
class HotstuffReplica final : public ConsensusReplica {
 public:
  HotstuffReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver);

 private:
  void handle(const PbftMessage& msg) override;
  void vote_to_leader(PbftMessage::Type type, std::uint64_t sequence,
                      const crypto::Hash256& digest);
  [[nodiscard]] bool qc_valid(const PbftMessage& msg) const;
  void handle_proposal(const PbftMessage& msg);
  void handle_vote(const PbftMessage& msg);
  void handle_qc(const PbftMessage& msg);
};

}  // namespace curb::bft
