#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "curb/bft/message.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/sdn/flow.hpp"
#include "curb/sdn/sagent.hpp"
#include "curb/sim/rng.hpp"

namespace curb::core {

/// PBFT traffic tagged with the consensus instance it belongs to.
/// `instance` is the membership-stable instance id of a group
/// (AssignmentState::instance_id_of) for Intra-PBFT, or kFinalInstance for
/// Final-PBFT.
struct PbftEnvelope {
  static constexpr std::uint32_t kFinalInstance = 0xffffffff;
  std::uint32_t instance = 0;
  /// The sender's adopted epoch when it sent the message. Nothing reads it:
  /// routing uses `instance` only, so a final replica rebuilt for a new
  /// committee also receives the previous committee's in-flight traffic. It
  /// stays on the wire because its 8 bytes count in wire_size().
  std::uint64_t epoch = 0;
  bft::PbftMessage message;

  [[nodiscard]] std::size_t wire_size() const { return 4 + 8 + message.wire_size(); }
};

/// End of intra-group consensus (Algorithm 3 line 12): every group member
/// sends the agreed txList to the final committee. `instance` is the
/// membership-stable ctrListID (AssignmentState::instance_id_of).
struct AgreeMsg {
  std::uint32_t instance = 0;
  std::uint32_t sender_controller = 0;
  std::vector<std::uint8_t> tx_list;  // serialized transaction list

  [[nodiscard]] std::size_t wire_size() const { return 4 + 4 + 4 + tx_list.size(); }
};

/// End of final consensus (Algorithm 3 line 25): final committee members
/// broadcast the sealed block to every controller.
struct FinalAgreeMsg {
  std::uint32_t sender_controller = 0;
  std::vector<std::uint8_t> block;  // serialized block

  [[nodiscard]] std::size_t wire_size() const { return 4 + 4 + block.size(); }
};

/// Controller -> switch REPLY carrying the agreed config for a request.
struct ReplyMsg {
  std::uint32_t controller_id = 0;
  std::uint32_t switch_id = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> config;

  [[nodiscard]] std::size_t wire_size() const { return 4 + 4 + 8 + 4 + config.size(); }
};

/// Unsolicited controller-group update pushed to switches whose group
/// changed as a side effect of a reassignment they did not request. The
/// epoch (block height of the committed RE-ASS) lets the s-agent collect
/// f+1 matching updates exactly like replies.
struct GroupUpdateMsg {
  std::uint32_t controller_id = 0;
  std::uint32_t switch_id = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> new_group;

  [[nodiscard]] std::size_t wire_size() const { return 4 + 4 + 8 + 4 * new_group.size(); }
};

/// Data-plane packet in flight between switch sites (logical tunnel: the
/// bus applies the shortest-path propagation delay between the endpoints).
struct DataPacketMsg {
  sdn::Packet packet;

  [[nodiscard]] std::size_t wire_size() const { return packet.size_bytes; }
};

/// Everything that travels over the Curb control network.
using CurbMessage =
    std::variant<sdn::RequestMsg, PbftEnvelope, AgreeMsg, FinalAgreeMsg, ReplyMsg,
                 GroupUpdateMsg, DataPacketMsg>;

[[nodiscard]] std::size_t wire_size(const CurbMessage& msg);
/// Message-accounting category ("PKT-IN", "intra-pbft", "AGREE", ...).
[[nodiscard]] std::string category_of(const CurbMessage& msg);
/// Ledger join key for the message-complexity auditor: 8-byte payload-digest
/// hex for consensus traffic (matches the `digest` attr on traced spans),
/// "switch:request" for request/reply traffic (matches `txns` attr entries),
/// empty for traffic with no transaction identity (GROUP-UPDATE, DATA).
[[nodiscard]] std::string digest_of(const CurbMessage& msg);

/// Flip bytes in the message's integrity-relevant content (curb::fault
/// corrupt clauses): payload/config/tx-list bytes, PBFT digests, group
/// lists. The flip keeps lengths intact, so receivers see structurally
/// parseable garbage that digest/quorum matching must reject — the same
/// effect a failed signature check has in the real deployment.
void corrupt_message(CurbMessage& msg, sim::Rng& rng);

}  // namespace curb::core
