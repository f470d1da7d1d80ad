#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "curb/bft/consensus.hpp"
#include "curb/bft/message.hpp"
#include "curb/bft/vote_set.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::bft {

/// One PBFT replica (pre-prepare / prepare / commit, view change, in-order
/// execution). Transport-agnostic: messages leave through a send callback,
/// arrive through on_message(). Reused for both consensus layers of Curb:
/// Intra-PBFT (payload = txList) and Final-PBFT (payload = block).
class PbftReplica final : public ConsensusReplica {
 public:
  using Config = ReplicaConfig;

  PbftReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver);
  /// Cancels all outstanding timers: replicas are torn down and rebuilt on
  /// Curb reassignment, and a stale timer firing into freed state would be
  /// a use-after-free.
  ~PbftReplica() override;

  PbftReplica(const PbftReplica&) = delete;
  PbftReplica& operator=(const PbftReplica&) = delete;

  /// Leader entry point: assign the next sequence number and broadcast the
  /// pre-prepare. Throws std::logic_error when called on a non-leader.
  std::uint64_t propose(std::vector<std::uint8_t> payload) override;

  /// Feed an incoming message from peer replicas.
  void on_message(const PbftMessage& msg) override;

  /// Application-triggered view change (e.g. Curb followers observing a
  /// client request the leader refuses to sequence). No-op while a view
  /// change is already in flight.
  void force_view_change() override { start_view_change(); }

  [[nodiscard]] std::uint64_t view() const override { return view_; }
  [[nodiscard]] std::uint32_t leader_index() const override {
    return static_cast<std::uint32_t>(view_ % config_.group_size);
  }
  [[nodiscard]] bool is_leader() const override {
    return leader_index() == config_.replica_index;
  }
  [[nodiscard]] std::uint32_t index() const override { return config_.replica_index; }
  [[nodiscard]] std::size_t f() const { return (config_.group_size - 1) / 3; }
  /// Next sequence this replica expects to execute.
  [[nodiscard]] std::uint64_t next_execute() const override { return next_exec_; }
  [[nodiscard]] std::uint64_t executed_count() const { return next_exec_ - 1; }

  /// Candidate views with outstanding view-change votes (all > view() —
  /// adopt_new_view prunes everything at or below the installed view).
  [[nodiscard]] std::vector<std::uint64_t> pending_view_change_views() const {
    std::vector<std::uint64_t> views;
    views.reserve(view_change_votes_.size());
    for (const auto& [v, votes] : view_change_votes_) views.push_back(v);
    return views;
  }

  void set_behavior(Behavior b) override { config_.behavior = b; }
  [[nodiscard]] Behavior behavior() const override { return config_.behavior; }
  void set_on_view_change(ViewChangeFn fn) override { on_view_change_ = std::move(fn); }

 private:
  struct SlotState {
    std::optional<crypto::Hash256> digest;  // accepted pre-prepare digest
    std::vector<std::uint8_t> payload;
    VoteSet prepares;
    VoteSet commits;
    bool prepared = false;
    bool committed = false;
    bool executed = false;
    sim::EventHandle timeout;
    // Observability: the slot span covers accept -> execute; the phase span
    // is the currently-open sub-phase (prepare, then commit).
    obs::SpanId span;
    obs::SpanId phase_span;
    sim::SimTime accepted_at;
    sim::SimTime prepared_at;
  };

  void send_to(std::uint32_t dest, PbftMessage msg);
  void broadcast(const PbftMessage& msg);
  void handle_pre_prepare(const PbftMessage& msg);
  void handle_prepare(const PbftMessage& msg);
  void handle_commit(const PbftMessage& msg);
  void handle_view_change(const PbftMessage& msg);
  void handle_view_change_quorum(std::uint64_t candidate_view);
  void handle_new_view(const PbftMessage& msg);
  void adopt_new_view(std::uint64_t new_view,
                      const std::vector<PbftMessage::PreparedEntry>& prepared);
  void check_prepared(std::uint64_t sequence);
  void check_committed(std::uint64_t sequence);
  void try_execute();
  void arm_timeout(std::uint64_t sequence);
  void start_view_change();
  [[nodiscard]] std::size_t quorum() const { return 2 * f() + 1; }
  [[nodiscard]] SlotState& slot(std::uint64_t sequence) { return slots_[sequence]; }

  // Observability hooks. The inline wrappers keep the disabled path to one
  // predictable pointer test on the consensus hot path; the _impl bodies
  // live out of line in replica.cpp.
  [[nodiscard]] bool tracing() const {
    return config_.obs != nullptr && config_.obs->tracer.enabled();
  }
  void obs_slot_accepted(std::uint64_t sequence, SlotState& s) {
    if (config_.obs != nullptr) obs_slot_accepted_impl(sequence, s);
  }
  void obs_slot_prepared(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_prepared_impl(s);
  }
  void obs_slot_committed(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_committed_impl(s);
  }
  void obs_slot_executed(std::uint64_t sequence, SlotState& s) {
    if (config_.obs != nullptr) obs_slot_executed_impl(sequence, s);
  }
  void obs_slot_reset(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_reset_impl(s);
  }
  void obs_view_installed(std::uint64_t new_view) {
    if (config_.obs != nullptr) obs_view_installed_impl(new_view);
  }
  void obs_slot_accepted_impl(std::uint64_t sequence, SlotState& s);
  void obs_slot_prepared_impl(SlotState& s);
  void obs_slot_committed_impl(SlotState& s);
  void obs_slot_executed_impl(std::uint64_t sequence, SlotState& s);
  void obs_slot_reset_impl(SlotState& s);
  void obs_view_installed_impl(std::uint64_t new_view);

  Config config_;
  sim::Simulator& sim_;
  SendFn send_;
  DeliverFn deliver_;
  ViewChangeFn on_view_change_;

  // Cached instrument handles, resolved once at construction.
  obs::Counter* view_changes_metric_ = nullptr;
  obs::Counter* timeouts_metric_ = nullptr;
  obs::Histogram* prepare_us_ = nullptr;
  obs::Histogram* commit_us_ = nullptr;
  obs::Histogram* slot_us_ = nullptr;

  std::uint64_t view_;
  std::uint64_t next_seq_ = 1;   // leader's next proposal sequence
  std::uint64_t next_exec_ = 1;  // next sequence to execute
  std::map<std::uint64_t, SlotState> slots_;
  // View-change bookkeeping: votes per candidate view.
  std::map<std::uint64_t, std::map<std::uint32_t, std::vector<PbftMessage::PreparedEntry>>>
      view_change_votes_;
  bool view_change_in_progress_ = false;
};

}  // namespace curb::bft
