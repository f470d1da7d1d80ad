#pragma once

#include <cstdint>

#include "curb/bft/consensus.hpp"
#include "curb/bft/message.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::bft {

/// One PBFT replica: pre-prepare / prepare / commit with all-to-all votes,
/// on the shared replica core (view change, timers, in-order execution).
/// Reused for both consensus layers of Curb: Intra-PBFT (payload = txList)
/// and Final-PBFT (payload = block). A view change carries every prepared,
/// unexecuted slot.
class PbftReplica final : public ConsensusReplica {
 public:
  PbftReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver);

 private:
  void handle(const PbftMessage& msg) override;
  void handle_pre_prepare(const PbftMessage& msg);
  void handle_prepare(const PbftMessage& msg);
  void handle_commit(const PbftMessage& msg);
  void check_prepared(std::uint64_t sequence);
  void check_committed(std::uint64_t sequence);
};

}  // namespace curb::bft
