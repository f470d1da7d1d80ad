#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "curb/bft/consensus.hpp"
#include "curb/bft/vote_set.hpp"
#include "curb/chain/blockchain.hpp"
#include "curb/core/assignment_state.hpp"
#include "curb/core/messages.hpp"
#include "curb/core/options.hpp"
#include "curb/crypto/secp256k1.hpp"
#include "curb/net/message_bus.hpp"
#include "curb/net/topology.hpp"
#include "curb/sdn/policy.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::core {

class CurbNetwork;

/// A Curb SDN controller (paper Algorithms 2 and 3): handles switch
/// requests as a group leader, participates in Intra-PBFT for every group
/// it belongs to, serves on the final committee when elected, maintains a
/// full blockchain replica, and answers switches with REPLY messages after
/// blocks commit.
class Controller {
 public:
  Controller(std::uint32_t id, net::NodeId node, crypto::KeyPair key, CurbNetwork& network);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Step 0: install the initial assignment view and genesis block, build
  /// PBFT replicas for every group membership (and finalCom if elected).
  void initialize(const AssignmentState& state, std::shared_ptr<const chain::Block> genesis);

  /// Entry point for every message addressed to this controller.
  void on_message(net::NodeId from, const CurbMessage& msg);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] const crypto::PublicKey& public_key() const { return key_.public_key(); }
  [[nodiscard]] const chain::Blockchain& blockchain() const { return *blockchain_; }
  [[nodiscard]] const AssignmentState& state() const { return state_; }
  [[nodiscard]] bool has_blockchain() const { return blockchain_ != nullptr; }

  /// Byzantine behaviour injection. kSilent/kLazy affect every outgoing
  /// message (requests, PBFT, AGREE, REPLY); the kLazy delay is sampled
  /// uniformly from [lazy_min, lazy_max] per message (paper experiment 3:
  /// response times in (200, 500) ms).
  void set_behavior(bft::Behavior behavior);
  [[nodiscard]] bft::Behavior behavior() const { return behavior_; }
  void set_lazy_range(sim::SimTime lo, sim::SimTime hi);
  /// When true, REPLY configs are corrupted (detected by s-agents as
  /// conflicting-config byzantine evidence).
  void set_bad_config(bool enabled) { bad_config_ = enabled; }
  /// Force a behaviour onto every live consensus replica (intra + final).
  /// set_behavior covers the controller's own traffic; this one makes the
  /// PBFT layer itself misbehave (equivocating proposals etc.).
  void set_replica_behavior(bft::Behavior behavior);

  /// Fail-stop: drop all volatile state (replicas, buffers, quorum
  /// tracking, chain, policy table) and ignore every message until
  /// restart_from. Timers already scheduled become no-ops.
  void crash();
  /// Recover from a peer's replicated blockchain (curb::fault crash/restart
  /// events): replay every block from genesis to rebuild the assignment
  /// view, served-request set, and policy table, then rejoin consensus.
  void restart_from(const chain::Blockchain& donor);
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Northbound API (paper Section III-B): an application service submits
  /// a policy update through this controller. The update flows through the
  /// normal consensus pipeline and lands on the blockchain, after which
  /// EVERY controller's policy table reflects it (state machine
  /// replication); subsequent PKT-IN configs honour it. Returns the
  /// request id used on-chain.
  enum class PolicyOp : std::uint8_t { kInstall = 0, kRemove = 1 };
  std::uint64_t submit_policy(const sdn::PolicyRule& rule,
                              PolicyOp op = PolicyOp::kInstall);
  [[nodiscard]] const sdn::PolicyTable& policy_table() const { return policy_table_; }

  struct Stats {
    std::uint64_t requests_handled = 0;
    std::uint64_t tx_created = 0;
    std::uint64_t tx_lists_proposed = 0;
    std::uint64_t blocks_proposed = 0;
    std::uint64_t blocks_committed = 0;
    std::uint64_t replies_sent = 0;
    std::uint64_t op_solves = 0;
    double op_solve_time_ms_total = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // --- request handling (Algorithm 2) ---
  // All consensus bookkeeping is keyed by the membership-stable instance id
  // (AssignmentState::instance_id_of), NOT the per-epoch dense group id:
  // reassignments renumber groups, but instances whose member set is
  // unchanged keep their PBFT state and in-flight work.
  void on_request(const sdn::RequestMsg& request);
  void handle_request_as_leader(std::uint32_t instance, const sdn::RequestMsg& request);
  void compute_config_and_buffer(std::uint32_t instance, const sdn::RequestMsg& request);
  void buffer_transaction(std::uint32_t instance, const sdn::RequestMsg& request,
                          std::vector<std::uint8_t> config);
  void handle_reassign_request(std::uint32_t instance, const sdn::RequestMsg& request);
  void flush_reass_window(std::uint32_t instance);
  [[nodiscard]] std::vector<std::uint8_t> compute_packet_in_config(
      const sdn::RequestMsg& request) const;
  void flush_request_buffer(std::uint32_t instance);

  // --- consensus plumbing (Algorithm 3) ---
  void on_pbft_envelope(net::NodeId from, const PbftEnvelope& envelope);
  void on_intra_committed(std::uint32_t instance, const std::vector<std::uint8_t>& payload);
  void on_agree(const AgreeMsg& agree);
  void flush_block_buffer();
  void on_final_committed(const std::vector<std::uint8_t>& payload);
  void on_final_agree(const FinalAgreeMsg& msg);
  void apply_block(const std::shared_ptr<const chain::Block>& block);
  void apply_reassignment(const chain::Transaction& tx, std::uint64_t height);
  [[nodiscard]] bool reassignment_resolved(const chain::Transaction& tx) const;
  void rehandle_stale_reassignment(const chain::Transaction& tx);
  void rebuild_replicas();
  void retire_final_replica();
  void send_replies_for(const chain::Transaction& tx);

  void apply_policy_update(const chain::Transaction& tx);

  // --- liveness: followers escalate stalled requests to a view change ---
  void arm_request_watchdog(std::uint32_t instance, const sdn::RequestMsg& request);
  void rehandle_pending(std::uint32_t instance);

  // --- transport ---
  void send(net::NodeId dest, CurbMessage msg);
  void send_to_controller(std::uint32_t controller_id, CurbMessage msg);
  /// One-payload broadcast: honest controllers hand the bus a single shared
  /// buffer via multicast; byzantine behaviors fall back to per-destination
  /// send() so dest-dependent tampering still applies.
  void broadcast_to_controllers(const std::vector<std::uint32_t>& controllers,
                                CurbMessage msg);
  [[nodiscard]] bft::ConsensusReplica* replica_for(std::uint32_t instance);

  // --- transaction signature verification (verify_signatures mode) ---
  // Verdicts are memoized by the digest of the txList or block bytes on top
  // of the process-wide crypto::SigCache, so duplicate AGREEs and the 3f+1
  // replicas validating the same proposal pay for ECDSA once.
  [[nodiscard]] bool verify_tx_signature(const chain::Transaction& tx) const;
  [[nodiscard]] bool verify_tx_list_payload(const crypto::Hash256& digest,
                                            const std::vector<std::uint8_t>& payload);
  /// `digest` is bft::payload_digest of the bytes `block` was decoded from.
  [[nodiscard]] bool verify_block_txs(const crypto::Hash256& digest,
                                      const chain::Block& block);
  void remember_verdict(const crypto::Hash256& key, bool ok);

  std::uint32_t id_;
  net::NodeId node_;
  crypto::KeyPair key_;
  CurbNetwork& network_;

  AssignmentState state_;
  std::unique_ptr<chain::Blockchain> blockchain_;
  /// Intra-group consensus replicas keyed by membership-stable instance id.
  std::map<std::uint32_t, std::unique_ptr<bft::ConsensusReplica>> replicas_;
  /// Replicas of groups replaced by a reassignment, kept for a grace period
  /// so in-flight consensus can still land on the chain (where stale
  /// reassignments are re-handled) instead of being silently destroyed.
  std::map<std::uint32_t, std::unique_ptr<bft::ConsensusReplica>> retired_replicas_;
  /// Every (instance -> members) this controller has ever adopted; lets
  /// final-committee members validate AGREEs from recently retired groups.
  std::map<std::uint32_t, std::vector<std::uint32_t>> known_instances_;
  std::unique_ptr<bft::ConsensusReplica> final_replica_;
  /// Committee the final replica was built for (kept across reassignments
  /// while the committee is unchanged).
  std::vector<std::uint32_t> final_committee_cache_;

  // Leader request buffers per group; dedup across the whole run.
  struct RequestKey {
    std::uint32_t switch_id;
    std::uint64_t request_id;
    auto operator<=>(const RequestKey&) const = default;
  };
  struct RequestKeyHash {
    std::size_t operator()(const RequestKey& key) const noexcept {
      return static_cast<std::size_t>(key.request_id * 0x9e3779b97f4a7c15ULL ^ key.switch_id);
    }
  };
  std::map<std::uint32_t, std::vector<chain::Transaction>> request_buffer_;
  /// RE-ASS aggregation (one OP solve covers a burst of accusations).
  struct ReassWindow {
    std::vector<std::uint32_t> accused;
    std::vector<sdn::RequestMsg> requests;
  };
  std::map<std::uint32_t, ReassWindow> reass_window_;
  std::map<std::uint32_t, sim::EventHandle> reass_window_timer_;
  // Containers that are only probed (never iterated) are hashed; those whose
  // iteration order can reach the event queue stay ordered.
  std::unordered_set<RequestKey, RequestKeyHash> handled_requests_;   // leader-side dedup
  std::unordered_set<RequestKey, RequestKeyHash> committed_requests_; // served (on-chain)
  // Pending requests per group for watchdog / re-handling after view change.
  std::map<std::uint32_t, std::map<RequestKey, sdn::RequestMsg>> pending_requests_;

  // Final-committee AGREE quorum tracking: (instance, txList digest) ->
  // senders, and whether the confirmed txList has been buffered.
  struct AgreeKey {
    std::uint32_t instance;
    crypto::Hash256 digest;
    bool operator==(const AgreeKey&) const = default;
  };
  struct AgreeKeyHash {
    std::size_t operator()(const AgreeKey& key) const noexcept {
      return crypto::DigestHash{}(key.digest) ^ key.instance;
    }
  };
  struct AgreeTally {
    bft::VoteSet votes;
    bool buffered = false;
  };
  std::unordered_map<AgreeKey, AgreeTally, AgreeKeyHash> agree_votes_;
  /// A confirmed-but-not-yet-on-chain txList, tagged with its instance so it
  /// can be re-AGREEd to a new committee after a membership change. Decoded
  /// once, at AGREE quorum. `txs` is absent when the bytes do not decode:
  /// such a list is never sealed into a block and is dropped at the next
  /// drain, which apply_block runs before any committee handover.
  struct ConfirmedTxList {
    std::uint32_t instance = 0;
    std::vector<std::uint8_t> bytes;
    std::optional<std::vector<chain::Transaction>> txs;
  };
  std::vector<ConfirmedTxList> block_buffer_;
  /// Controllers that have ever served on the final committee (monotone);
  /// AGREEs from them are accepted so committee handovers can forward
  /// their confirmed backlog.
  std::set<std::uint32_t> ever_committee_;
  /// AGREEs for instances this node has not adopted yet (it may simply be
  /// behind on block application); replayed after each epoch adoption.
  std::vector<std::pair<sim::SimTime, AgreeMsg>> orphan_agrees_;
  /// Final leader: a proposed block not yet on the chain. Proposals are
  /// serialized — two in-flight blocks would claim the same height and the
  /// loser's transactions would be dropped by every replica.
  bool final_proposal_in_flight_ = false;

  /// Signature-verification verdicts memoized by the digest of the
  /// serialized txList or block. Bounded by a wholesale clear. The key covers
  /// every byte, signatures included, so a corrupted copy never shares a
  /// verdict with the pristine one. (A block hash would not do: it commits
  /// to transaction ids, and an id leaves out the signature.)
  std::unordered_map<crypto::Hash256, bool, crypto::DigestHash> payload_verdicts_;

  /// FINAL-AGREE quorum tracking per block hash: the senders, and the block
  /// of the last copy that passed validation, as CurbNetwork::validated_block
  /// served it. The network serves one block object only for byte-identical
  /// copies, so a copy served this object is counted without its signatures
  /// being checked again.
  struct FinalAgreeTally {
    bft::VoteSet votes;
    std::shared_ptr<const chain::Block> block;
  };
  std::unordered_map<crypto::Hash256, FinalAgreeTally, crypto::DigestHash> final_agree_votes_;
  std::unordered_set<crypto::Hash256, crypto::DigestHash> applied_blocks_;
  /// Non-parallel mode (paper Fig. 4(c)): a group must see its previous
  /// txList reach the chain before proposing the next one. Tracks the tx
  /// ids each instance has proposed that are not yet on-chain. Written in
  /// both modes: apply_block schedules a flush of the request buffer when an
  /// instance's set empties, and those flushes are events in parallel mode
  /// too.
  std::map<std::uint32_t, std::unordered_set<crypto::Hash256, crypto::DigestHash>>
      outstanding_tx_;

  sdn::PolicyTable policy_table_;
  std::uint64_t next_policy_request_ = 1;

  bft::Behavior behavior_ = bft::Behavior::kHonest;
  sim::SimTime lazy_min_ = sim::SimTime::millis(200);
  sim::SimTime lazy_max_ = sim::SimTime::millis(500);
  bool bad_config_ = false;
  bool crashed_ = false;
  /// kStaleViewSpam: rotates the spammed (stale) view number.
  std::uint64_t stale_spam_counter_ = 0;

  Stats stats_;
  sim::Rng rng_;
};

}  // namespace curb::core
