#include "curb/bft/consensus.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "curb/bft/hotstuff.hpp"
#include "curb/bft/replica.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::bft {

ConsensusReplica::ConsensusReplica(Config config, sim::Simulator& sim, SendFn send,
                                   DeliverFn deliver, PbftMessage::Type proposal_type,
                                   Phase carried_from, std::string_view prof_label)
    : config_{std::move(config)},
      sim_{sim},
      send_{std::move(send)},
      deliver_{std::move(deliver)},
      proposal_type_{proposal_type},
      carried_from_{carried_from},
      prof_label_{prof_label},
      view_{config_.initial_view} {
  if (config_.group_size < 4) {
    throw std::invalid_argument{"ConsensusReplica: group size must be >= 4 (3f+1, f >= 1)"};
  }
  if (config_.replica_index >= config_.group_size) {
    throw std::invalid_argument{"ConsensusReplica: replica index out of range"};
  }
  if (config_.obs != nullptr) {
    auto& registry = config_.obs->metrics;
    const obs::Labels layer{{"layer", config_.span_prefix}};
    view_changes_metric_ = &registry.counter("bft.view_changes", layer);
    timeouts_metric_ = &registry.counter("bft.timeouts_fired", layer);
    prepare_us_ = &registry.histogram("bft.prepare_us", layer);
    commit_us_ = &registry.histogram("bft.commit_us", layer);
    slot_us_ = &registry.histogram("bft.slot_us", layer);
  }
}

ConsensusReplica::~ConsensusReplica() {
  for (auto& [seq, s] : slots_) sim_.cancel(s.timeout);
}

std::uint64_t ConsensusReplica::propose(std::vector<std::uint8_t> payload) {
  if (!is_leader()) throw std::logic_error{"ConsensusReplica: propose() on non-leader"};
  const std::uint64_t seq = next_seq_++;

  PbftMessage msg;
  msg.type = proposal_type_;
  msg.view = view_;
  msg.sequence = seq;
  msg.sender = config_.replica_index;

  if (config_.behavior == Behavior::kEquivocate) {
    // Conflicting proposals: half the peers see a corrupted payload. Honest
    // replicas will fail to assemble a quorum on either digest.
    std::vector<std::uint8_t> corrupted = payload;
    if (!corrupted.empty()) corrupted[0] ^= 0xff;
    corrupted.push_back(0xee);
    for (std::uint32_t dest = 0; dest < config_.group_size; ++dest) {
      if (dest == config_.replica_index) continue;
      PbftMessage variant = msg;
      variant.payload = (dest % 2 == 0) ? payload : corrupted;
      variant.digest = payload_digest(variant.payload);
      send_to(dest, std::move(variant));
    }
    return seq;
  }

  msg.payload = std::move(payload);
  msg.digest = payload_digest(msg.payload);
  send_proposal(msg);
  return seq;
}

void ConsensusReplica::send_proposal(const PbftMessage& msg) {
  auto& s = slot(msg.sequence);
  s.digest = msg.digest;
  s.payload = msg.payload;
  s.prepares.insert(config_.replica_index);  // the leader's own prepare vote
  obs_slot_accepted(msg.sequence, s);
  arm_timeout(msg.sequence);
  broadcast(msg);
}

void ConsensusReplica::send_to(std::uint32_t dest, PbftMessage msg) {
  switch (config_.behavior) {
    case Behavior::kSilent:
      return;  // byzantine: withhold everything
    case Behavior::kLazy: {
      // Deliver late: schedule the send after the lazy delay. The callback
      // copies send_ so it stays valid if this replica is torn down (Curb
      // reassignment) before the delayed send fires.
      sim_.schedule(kLazyDelay, [send = send_, dest, msg = std::move(msg)] { send(dest, msg); });
      return;
    }
    case Behavior::kEquivocate:
      switch (msg.type) {
        case PbftMessage::Type::kPrepare:
        case PbftMessage::Type::kCommit:
        case PbftMessage::Type::kVotePrepare:
        case PbftMessage::Type::kVotePreCommit:
        case PbftMessage::Type::kVoteCommit:
          msg.digest[0] ^= 0xff;  // vote for a digest nobody proposed
          break;
        default:
          break;
      }
      break;
    case Behavior::kSelectiveSilent:
      if (dest % 2 == 0) return;  // withhold from even-indexed peers only
      break;
    case Behavior::kStaleViewSpam:  // spam happens at the controller layer
    case Behavior::kHonest:
      break;
  }
  send_(dest, msg);
}

void ConsensusReplica::broadcast(const PbftMessage& msg) {
  for (std::uint32_t dest = 0; dest < config_.group_size; ++dest) {
    if (dest == config_.replica_index) continue;
    send_to(dest, msg);
  }
}

PbftMessage ConsensusReplica::vote(PbftMessage::Type type, std::uint64_t sequence,
                                   const crypto::Hash256& digest) const {
  PbftMessage msg;
  msg.type = type;
  msg.view = view_;
  msg.sequence = sequence;
  msg.digest = digest;
  msg.sender = config_.replica_index;
  return msg;
}

void ConsensusReplica::on_message(const PbftMessage& msg) {
  const prof::Scope scope{prof_label_};
  if (msg.sender >= config_.group_size || msg.sender == config_.replica_index) return;
  switch (msg.type) {
    case PbftMessage::Type::kViewChange: handle_view_change(msg); break;
    case PbftMessage::Type::kNewView: handle_new_view(msg); break;
    default: handle(msg); break;
  }
}

ConsensusReplica::SlotState* ConsensusReplica::accept_proposal(const PbftMessage& msg) {
  if (msg.view != view_ || msg.sender != leader_index()) return nullptr;
  if (payload_digest(msg.payload) != msg.digest) return nullptr;  // malformed
  if (config_.validate_payload && !config_.validate_payload(msg.payload)) return nullptr;

  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return nullptr;  // conflicting proposal
  if (s.executed) return nullptr;
  const bool fresh = !s.digest.has_value();
  s.digest = msg.digest;
  s.payload = msg.payload;
  if (fresh) {
    obs_slot_accepted(msg.sequence, s);
    arm_timeout(msg.sequence);
  }
  return &s;
}

void ConsensusReplica::commit(SlotState& s) {
  s.phase = Phase::kCommitted;
  obs_slot_committed(s);
  sim_.cancel(s.timeout);
  try_execute();
}

void ConsensusReplica::try_execute() {
  for (;;) {
    const auto it = slots_.find(next_exec_);
    if (it == slots_.end() || it->second.phase != Phase::kCommitted || it->second.executed) {
      break;
    }
    it->second.executed = true;
    obs_slot_executed(it->second);
    deliver_(next_exec_, it->second.payload);
    ++next_exec_;
  }
  // Checkpoint-lite: drop executed slots far behind the execution frontier.
  // Re-delivery is impossible regardless (execution is strictly in-order),
  // so this only bounds memory; late votes for a collected slot simply
  // accumulate in a fresh (never-executing) slot entry.
  if (next_exec_ > kGcWindow) {
    const std::uint64_t horizon = next_exec_ - kGcWindow;
    for (auto it = slots_.begin(); it != slots_.end() && it->first < horizon;) {
      if (!it->second.executed) break;  // keep anything unexecuted
      sim_.cancel(it->second.timeout);
      it = slots_.erase(it);
    }
  }
}

void ConsensusReplica::arm_timeout(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // A slot can be re-armed (e.g. re-proposed after a view change); the old
  // timer must die with the old round or it fires against the new one and
  // triggers a spurious view change.
  sim_.cancel(s.timeout);
  s.timeout = sim_.schedule(config_.view_change_timeout, [this, sequence] {
    const auto it = slots_.find(sequence);
    if (it == slots_.end() || it->second.phase == Phase::kCommitted) return;
    if (timeouts_metric_ != nullptr) timeouts_metric_->inc();
    if (tracing()) {
      config_.obs->tracer.instant(config_.span_prefix + ".timeout", config_.span_track,
                                  {{"seq", std::to_string(sequence)}});
    }
    start_view_change();
  });
}

// ---- view change --------------------------------------------------------

std::vector<std::uint64_t> ConsensusReplica::pending_view_change_views() const {
  std::vector<std::uint64_t> views;
  views.reserve(view_change_votes_.size());
  for (const auto& [v, votes] : view_change_votes_) views.push_back(v);
  return views;
}

void ConsensusReplica::start_view_change() {
  if (view_change_in_progress_) return;
  const std::uint64_t candidate_view = view_ + 1;
  send_view_change(candidate_view);
  handle_view_change_quorum(candidate_view);
}

void ConsensusReplica::send_view_change(std::uint64_t new_view) {
  view_change_in_progress_ = true;
  PbftMessage msg;
  msg.type = PbftMessage::Type::kViewChange;
  msg.view = new_view;
  msg.sender = config_.replica_index;
  // The engine's locked slots ride into the new view.
  for (const auto& [seq, s] : slots_) {
    if (s.phase >= carried_from_ && !s.executed && s.digest) {
      msg.prepared.push_back({seq, *s.digest, s.payload});
    }
  }
  // Record the own vote, then broadcast.
  view_change_votes_[new_view][config_.replica_index] = msg.prepared;
  broadcast(msg);
}

void ConsensusReplica::handle_view_change(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  auto& votes = view_change_votes_[msg.view];
  votes[msg.sender] = msg.prepared;
  // Join the view change once f+1 peers demand it (they cannot all be lying).
  if (!view_change_in_progress_ && votes.size() >= f() + 1 &&
      !votes.contains(config_.replica_index)) {
    send_view_change(msg.view);
  }
  handle_view_change_quorum(msg.view);
}

void ConsensusReplica::handle_view_change_quorum(std::uint64_t candidate_view) {
  const auto it = view_change_votes_.find(candidate_view);
  if (it == view_change_votes_.end() || it->second.size() < quorum()) return;
  if (leader_of(candidate_view) != config_.replica_index) return;
  if (candidate_view <= view_) return;

  // New leader: install the view and re-propose every carried entry.
  PbftMessage new_view;
  new_view.type = PbftMessage::Type::kNewView;
  new_view.view = candidate_view;
  new_view.sender = config_.replica_index;
  std::map<std::uint64_t, PbftMessage::PreparedEntry> merged;
  for (const auto& [replica, entries] : it->second) {
    for (const auto& e : entries) merged.emplace(e.sequence, e);
  }
  for (const auto& [seq, e] : merged) new_view.prepared.push_back(e);
  broadcast(new_view);
  adopt_new_view(candidate_view, new_view.prepared);
}

void ConsensusReplica::handle_new_view(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  if (msg.sender != leader_of(msg.view)) return;
  adopt_new_view(msg.view, msg.prepared);
}

void ConsensusReplica::adopt_new_view(std::uint64_t new_view,
                                      const std::vector<PbftMessage::PreparedEntry>& prepared) {
  view_ = new_view;
  view_change_in_progress_ = false;
  // Votes for the adopted view and everything below are settled; keeping
  // them would let stale (or spammed) view-change votes accumulate forever.
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(new_view));
  obs_view_installed(new_view);
  // Reset per-slot voting state for unexecuted slots; re-run consensus on
  // the carried-over entries in the new view. Fresh proposals start above
  // every carried sequence, including those this replica holds no slot for:
  // on_view_change_ may propose before the carried entries are re-proposed.
  std::uint64_t max_seq = next_exec_ - 1;
  for (const auto& e : prepared) max_seq = std::max(max_seq, e.sequence);
  for (auto& [seq, s] : slots_) {
    max_seq = std::max(max_seq, seq);
    if (s.executed) continue;
    sim_.cancel(s.timeout);
    obs_slot_reset(s);
    s.prepares.clear();
    s.precommits.clear();
    s.commits.clear();
    s.phase = Phase::kIdle;
    s.digest.reset();
    s.payload.clear();
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
  if (on_view_change_) on_view_change_(new_view);

  if (!is_leader()) return;
  for (const auto& e : prepared) {
    const auto it = slots_.find(e.sequence);
    if (it != slots_.end() && it->second.executed) continue;
    PbftMessage msg;
    msg.type = proposal_type_;
    msg.view = view_;
    msg.sequence = e.sequence;
    msg.sender = config_.replica_index;
    msg.payload = e.payload;
    msg.digest = payload_digest(msg.payload);
    send_proposal(msg);
  }
}

// ---- observability hooks ----------------------------------------------
//
// Span model per slot, all on this replica's track:
//   {prefix}           accept -> execute       (the whole slot)
//     {prefix}.prepare accept -> prepared      (the proposal implied at start)
//     {prefix}.commit  prepared -> committed
// Phase durations also land in the bft.{prepare,commit,slot}_us histograms
// so runs without tracing still get timing distributions.

void ConsensusReplica::obs_slot_accepted(std::uint64_t sequence, SlotState& s) {
  if (config_.obs == nullptr) return;
  s.accepted_at = sim_.now();
  if (!tracing()) return;
  auto& tracer = config_.obs->tracer;
  obs::Attrs attrs = config_.span_attrs;
  attrs.emplace_back("seq", std::to_string(sequence));
  attrs.emplace_back("view", std::to_string(view_));
  // Join key of the traced-event contract (DESIGN.md §9): the payload digest
  // ties this consensus slot to the AGREE / block_commit stage it feeds.
  if (s.digest) attrs.emplace_back("digest", crypto::short_hex(*s.digest, 8));
  // Slots interleave on the replica track, so the slot span is a root and
  // every phase hangs explicitly off its own slot.
  s.span = tracer.begin_under({}, config_.span_prefix, config_.span_track, attrs);
  tracer.end(
      tracer.begin_under(s.span, config_.span_prefix + ".pre_prepare", config_.span_track));
  s.phase_span =
      tracer.begin_under(s.span, config_.span_prefix + ".prepare", config_.span_track);
}

void ConsensusReplica::obs_slot_prepared(SlotState& s) {
  if (config_.obs == nullptr) return;
  s.prepared_at = sim_.now();
  prepare_us_->record(static_cast<double>((s.prepared_at - s.accepted_at).as_micros()));
  if (!tracing()) return;
  auto& tracer = config_.obs->tracer;
  tracer.end(s.phase_span);
  s.phase_span =
      tracer.begin_under(s.span, config_.span_prefix + ".commit", config_.span_track);
}

void ConsensusReplica::obs_slot_committed(SlotState& s) {
  if (config_.obs == nullptr) return;
  commit_us_->record(static_cast<double>((sim_.now() - s.prepared_at).as_micros()));
  if (!tracing()) return;
  config_.obs->tracer.end(s.phase_span);
  s.phase_span = obs::SpanId{};
}

void ConsensusReplica::obs_slot_executed(SlotState& s) {
  if (config_.obs == nullptr) return;
  slot_us_->record(static_cast<double>((sim_.now() - s.accepted_at).as_micros()));
  if (!tracing()) return;
  config_.obs->tracer.end(s.span);
  s.span = obs::SpanId{};
}

void ConsensusReplica::obs_slot_reset(SlotState& s) {
  if (config_.obs == nullptr) return;
  if (tracing()) {
    auto& tracer = config_.obs->tracer;
    tracer.end(s.phase_span);
    tracer.end(s.span);
  }
  s.phase_span = obs::SpanId{};
  s.span = obs::SpanId{};
}

void ConsensusReplica::obs_view_installed(std::uint64_t new_view) {
  if (config_.obs == nullptr) return;
  view_changes_metric_->inc();
  if (tracing()) {
    config_.obs->tracer.instant(config_.span_prefix + ".view_change", config_.span_track,
                                {{"view", std::to_string(new_view)}});
  }
}

std::unique_ptr<ConsensusReplica> make_replica(ConsensusEngine engine,
                                               const ReplicaConfig& config,
                                               sim::Simulator& sim,
                                               ConsensusReplica::SendFn send,
                                               ConsensusReplica::DeliverFn deliver) {
  switch (engine) {
    case ConsensusEngine::kPbft:
      return std::make_unique<PbftReplica>(config, sim, std::move(send),
                                           std::move(deliver));
    case ConsensusEngine::kHotstuff:
      return std::make_unique<HotstuffReplica>(config, sim, std::move(send),
                                               std::move(deliver));
  }
  throw std::invalid_argument{"make_replica: unknown engine"};
}

}  // namespace curb::bft
