#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "curb/bft/message.hpp"
#include "curb/bft/vote_set.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::bft {

/// Byzantine behaviour injected into a replica (paper Section IV-A):
///  - kHonest: follows the protocol.
///  - kSilent: sends nothing (crashed or withholding — the paper's
///    experiment 1/2 byzantine nodes that "do not respond within timeout").
///  - kLazy: delays every outgoing message by 300 ms (the paper's
///    experiment 3 nodes with response times in (200, 500) ms).
///  - kEquivocate: as leader, proposes conflicting payloads to different
///    peers; as follower, votes for a corrupted digest.
///  - kSelectiveSilent: withholds messages from even-indexed peers only —
///    enough honest pairs still talk for the protocol to make progress,
///    but naive "is it silent?" detectors see conflicting evidence.
///  - kStaleViewSpam: participates honestly but floods peers with
///    view-change votes for views far ahead of the current one, probing
///    the view-change vote bookkeeping (curb::fault).
enum class Behavior : std::uint8_t {
  kHonest,
  kSilent,
  kLazy,
  kEquivocate,
  kSelectiveSilent,
  kStaleViewSpam,
};

/// Which BFT engine a consensus instance runs. The paper uses PBFT ("other
/// BFT protocols including Tendermint and HotStuff can also be applied");
/// this library ships both an all-to-all PBFT and a leader-aggregated
/// HotStuff-style engine with linear per-round communication.
enum class ConsensusEngine : std::uint8_t { kPbft, kHotstuff };

[[nodiscard]] constexpr std::string_view to_string(ConsensusEngine e) {
  switch (e) {
    case ConsensusEngine::kPbft: return "pbft";
    case ConsensusEngine::kHotstuff: return "hotstuff";
  }
  return "?";
}

/// Shared configuration for any replica engine.
struct ReplicaConfig {
  std::uint32_t replica_index = 0;
  std::size_t group_size = 4;  // n = 3f + 1
  /// Commit timeout before initiating a view change.
  sim::SimTime view_change_timeout = sim::SimTime::millis(500);
  Behavior behavior = Behavior::kHonest;
  /// Starting view; leader of view v is replica v % group_size. Curb uses
  /// this to seat the OP-designated group leader at startup.
  std::uint64_t initial_view = 0;
  /// Observability (nullptr disables). `span_track` names the trace row the
  /// replica's spans render on (one per controller); `span_prefix`
  /// distinguishes Curb's two consensus layers ("intra_pbft" /
  /// "final_pbft") in span names and metric labels; `span_attrs` rides on
  /// every span (group id, controller id, ...).
  obs::Observatory* obs = nullptr;
  std::string span_track;
  std::string span_prefix = "pbft";
  obs::Attrs span_attrs;
  /// Optional application check of a proposed payload (e.g. transaction
  /// signature verification), run once per proposal after the digest check.
  /// A replica never adopts — and never votes for — a payload this rejects.
  /// Leave empty to accept every well-digested payload (the default).
  std::function<bool(const std::vector<std::uint8_t>& payload)> validate_payload;
};

/// The replica core both engines share (DESIGN.md §22): config checks, the
/// byzantine send filter, proposals, slot timers, in-order execution with
/// slot GC, the slot spans and `bft.*` instruments, and the view change
/// (VIEW-CHANGE / NEW-VIEW with re-proposal). An engine adds its normal-case
/// voting (`handle`), the message type that carries a proposal and the phase
/// from which a slot survives a view change. Transport-agnostic: messages
/// leave through a send callback and arrive through on_message(); committed
/// payloads are delivered strictly in sequence order.
class ConsensusReplica {
 public:
  using Config = ReplicaConfig;
  /// Send `msg` to replica `dest` (index within the group).
  using SendFn = std::function<void(std::uint32_t dest, const PbftMessage& msg)>;
  /// A payload committed at `sequence` (called in sequence order).
  using DeliverFn = std::function<void(std::uint64_t sequence,
                                       const std::vector<std::uint8_t>& payload)>;
  /// View changed to `new_view` (leader = new_view % group_size).
  using ViewChangeFn = std::function<void(std::uint64_t new_view)>;

  /// Executed slots more than this many sequences behind the execution
  /// frontier are dropped (checkpoint-lite: keeps long-running replicas
  /// bounded).
  static constexpr std::uint64_t kGcWindow = 64;

  /// Cancels all outstanding timers: replicas are torn down and rebuilt on
  /// Curb reassignment, and a stale timer firing into freed state would be
  /// a use-after-free.
  virtual ~ConsensusReplica();

  ConsensusReplica(const ConsensusReplica&) = delete;
  ConsensusReplica& operator=(const ConsensusReplica&) = delete;

  /// Leader entry point: assign the next sequence number and send the
  /// proposal. Throws std::logic_error when called on a non-leader.
  std::uint64_t propose(std::vector<std::uint8_t> payload);
  /// Feed an incoming message from peer replicas.
  void on_message(const PbftMessage& msg);
  /// Application-triggered view change (e.g. Curb followers observing a
  /// client request the leader refuses to sequence). No-op while a view
  /// change is already in flight.
  void force_view_change() { start_view_change(); }

  [[nodiscard]] std::uint64_t view() const { return view_; }
  [[nodiscard]] std::uint32_t leader_index() const { return leader_of(view_); }
  [[nodiscard]] bool is_leader() const { return leader_index() == config_.replica_index; }
  [[nodiscard]] std::uint32_t index() const { return config_.replica_index; }
  [[nodiscard]] std::size_t f() const { return (config_.group_size - 1) / 3; }
  /// Next sequence this replica expects to execute.
  [[nodiscard]] std::uint64_t next_execute() const { return next_exec_; }
  /// Candidate views with outstanding view-change votes (all > view() —
  /// adopting a view prunes everything at or below it).
  [[nodiscard]] std::vector<std::uint64_t> pending_view_change_views() const;

  void set_behavior(Behavior b) { config_.behavior = b; }
  [[nodiscard]] Behavior behavior() const { return config_.behavior; }
  void set_on_view_change(ViewChangeFn fn) { on_view_change_ = std::move(fn); }

 protected:
  /// Voting progress of a slot: PBFT goes idle -> prepared -> committed,
  /// HotStuff passes through pre-committed as well.
  enum class Phase : std::uint8_t { kIdle, kPrepared, kPreCommitted, kCommitted };

  struct SlotState {
    std::optional<crypto::Hash256> digest;  // the accepted proposal's digest
    Phase phase = Phase::kIdle;  // these two sit in the padding before `payload`
    bool executed = false;
    std::vector<std::uint8_t> payload;
    VoteSet prepares;
    VoteSet precommits;  // HotStuff only
    VoteSet commits;
    sim::EventHandle timeout;
    // Observability: the slot span covers accept -> execute; the phase span
    // is the currently-open sub-phase (prepare, then commit).
    obs::SpanId span;
    obs::SpanId phase_span;
    sim::SimTime accepted_at;
    sim::SimTime prepared_at;
  };

  /// `proposal_type` is the message a leader proposes with; slots at
  /// `carried_from` or beyond ride a VIEW-CHANGE into the next view;
  /// `prof_label` names the host-profile scope of on_message().
  ConsensusReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver,
                   PbftMessage::Type proposal_type, Phase carried_from,
                   std::string_view prof_label);

  /// The engine's normal-case messages (anything but VIEW-CHANGE/NEW-VIEW).
  virtual void handle(const PbftMessage& msg) = 0;

  void send_to(std::uint32_t dest, PbftMessage msg);
  void broadcast(const PbftMessage& msg);
  /// A vote (or QC) of this replica in the current view.
  [[nodiscard]] PbftMessage vote(PbftMessage::Type type, std::uint64_t sequence,
                                 const crypto::Hash256& digest) const;
  /// Records a follower-received proposal in its slot, arming the slot's
  /// timer the first time; nullptr when it is not the current leader's,
  /// malformed, rejected, conflicting or for an executed slot.
  SlotState* accept_proposal(const PbftMessage& msg);
  /// Marks a slot committed and executes whatever is now in order.
  void commit(SlotState& s);
  [[nodiscard]] std::size_t quorum() const { return 2 * f() + 1; }
  [[nodiscard]] SlotState& slot(std::uint64_t sequence) { return slots_[sequence]; }

  // Observability: slot spans, phase histograms, view-change counters.
  void obs_slot_accepted(std::uint64_t sequence, SlotState& s);
  void obs_slot_prepared(SlotState& s);

  Config config_;

 private:
  /// Extra delay on every outgoing message of a kLazy replica.
  static constexpr sim::SimTime kLazyDelay = sim::SimTime::millis(300);

  [[nodiscard]] std::uint32_t leader_of(std::uint64_t view) const {
    return static_cast<std::uint32_t>(view % config_.group_size);
  }
  /// The leader's own proposal: accept it locally, arm the timer, send it.
  void send_proposal(const PbftMessage& msg);
  void try_execute();
  void arm_timeout(std::uint64_t sequence);
  void start_view_change();
  /// Records and broadcasts this replica's VIEW-CHANGE for `new_view`.
  void send_view_change(std::uint64_t new_view);
  void handle_view_change(const PbftMessage& msg);
  void handle_view_change_quorum(std::uint64_t candidate_view);
  void handle_new_view(const PbftMessage& msg);
  void adopt_new_view(std::uint64_t new_view,
                      const std::vector<PbftMessage::PreparedEntry>& prepared);

  [[nodiscard]] bool tracing() const {
    return config_.obs != nullptr && config_.obs->tracer.enabled();
  }
  void obs_slot_committed(SlotState& s);
  void obs_slot_executed(SlotState& s);
  void obs_slot_reset(SlotState& s);
  void obs_view_installed(std::uint64_t new_view);

  sim::Simulator& sim_;
  SendFn send_;
  DeliverFn deliver_;
  ViewChangeFn on_view_change_;
  const PbftMessage::Type proposal_type_;
  const Phase carried_from_;
  const std::string_view prof_label_;

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

/// Create a replica of the requested engine.
[[nodiscard]] std::unique_ptr<ConsensusReplica> make_replica(
    ConsensusEngine engine, const ReplicaConfig& config, sim::Simulator& sim,
    ConsensusReplica::SendFn send, ConsensusReplica::DeliverFn deliver);

}  // namespace curb::bft
