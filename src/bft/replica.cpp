#include "curb/bft/replica.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "curb/prof/profiler.hpp"

namespace curb::bft {

PbftReplica::PbftReplica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver)
    : config_{config},
      sim_{sim},
      send_{std::move(send)},
      deliver_{std::move(deliver)},
      view_{config.initial_view} {
  if (config_.group_size < 4) {
    throw std::invalid_argument{"PbftReplica: group size must be >= 4 (3f+1, f >= 1)"};
  }
  if (config_.replica_index >= config_.group_size) {
    throw std::invalid_argument{"PbftReplica: replica index out of range"};
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

PbftReplica::~PbftReplica() {
  for (auto& [seq, s] : slots_) sim_.cancel(s.timeout);
}

std::uint64_t PbftReplica::propose(std::vector<std::uint8_t> payload) {
  if (!is_leader()) throw std::logic_error{"PbftReplica: propose() on non-leader"};
  const std::uint64_t seq = next_seq_++;

  PbftMessage msg;
  msg.type = PbftMessage::Type::kPrePrepare;
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

  // Self-accept the proposal, then broadcast.
  auto& s = slot(seq);
  s.digest = msg.digest;
  s.payload = msg.payload;
  s.prepares.insert(config_.replica_index);
  obs_slot_accepted(seq, s);
  arm_timeout(seq);
  broadcast(msg);
  return seq;
}

void PbftReplica::send_to(std::uint32_t dest, PbftMessage msg) {
  switch (config_.behavior) {
    case Behavior::kSilent:
      return;  // byzantine: withhold everything
    case Behavior::kLazy: {
      // Deliver late: schedule the send after the configured delay. The
      // callback copies send_ so it stays valid if this replica is torn
      // down (Curb reassignment) before the delayed send fires.
      sim_.schedule(config_.lazy_delay,
                    [send = send_, dest, msg = std::move(msg)] { send(dest, msg); });
      return;
    }
    case Behavior::kEquivocate:
      if (msg.type == PbftMessage::Type::kPrepare ||
          msg.type == PbftMessage::Type::kCommit) {
        msg.digest[0] ^= 0xff;  // vote for a digest nobody proposed
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

void PbftReplica::broadcast(const PbftMessage& msg) {
  for (std::uint32_t dest = 0; dest < config_.group_size; ++dest) {
    if (dest == config_.replica_index) continue;
    send_to(dest, msg);
  }
}

void PbftReplica::on_message(const PbftMessage& msg) {
  const prof::Scope scope{"bft.pbft_msg"};
  if (msg.sender >= config_.group_size || msg.sender == config_.replica_index) return;
  switch (msg.type) {
    case PbftMessage::Type::kPrePrepare: handle_pre_prepare(msg); break;
    case PbftMessage::Type::kPrepare: handle_prepare(msg); break;
    case PbftMessage::Type::kCommit: handle_commit(msg); break;
    case PbftMessage::Type::kViewChange: handle_view_change(msg); break;
    case PbftMessage::Type::kNewView: handle_new_view(msg); break;
    // HotStuff messages belong to the other engine; a PBFT replica ignores
    // them.
    case PbftMessage::Type::kProposal:
    case PbftMessage::Type::kVotePrepare:
    case PbftMessage::Type::kQcPrepare:
    case PbftMessage::Type::kVotePreCommit:
    case PbftMessage::Type::kQcPreCommit:
    case PbftMessage::Type::kVoteCommit:
    case PbftMessage::Type::kQcCommit:
      break;
  }
}

void PbftReplica::handle_pre_prepare(const PbftMessage& msg) {
  if (msg.view != view_) return;
  if (msg.sender != leader_index()) return;  // only the leader may propose
  if (payload_digest(msg.payload) != msg.digest) return;  // malformed
  if (config_.validate_payload && !config_.validate_payload(msg.payload)) return;

  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return;  // conflicting proposal: ignore
  if (s.executed) return;
  const bool fresh = !s.digest.has_value();
  s.digest = msg.digest;
  s.payload = msg.payload;
  s.prepares.insert(config_.replica_index);
  s.prepares.insert(msg.sender);  // the pre-prepare is the leader's prepare vote
  if (fresh) {
    obs_slot_accepted(msg.sequence, s);
    arm_timeout(msg.sequence);
  }

  PbftMessage prepare;
  prepare.type = PbftMessage::Type::kPrepare;
  prepare.view = view_;
  prepare.sequence = msg.sequence;
  prepare.digest = msg.digest;
  prepare.sender = config_.replica_index;
  broadcast(prepare);
  check_prepared(msg.sequence);
}

void PbftReplica::handle_prepare(const PbftMessage& msg) {
  if (msg.view != view_) return;
  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return;  // vote for a different digest
  if (!s.digest) {
    // Prepare arrived before the pre-prepare; remember the vote only.
    s.prepares.insert(msg.sender);
    return;
  }
  s.prepares.insert(msg.sender);
  check_prepared(msg.sequence);
}

void PbftReplica::check_prepared(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // Prepared: pre-prepare accepted + 2f+1 prepare votes (own included).
  if (s.prepared || !s.digest || s.prepares.size() < quorum()) return;
  s.prepared = true;
  s.commits.insert(config_.replica_index);
  obs_slot_prepared(s);

  PbftMessage commit;
  commit.type = PbftMessage::Type::kCommit;
  commit.view = view_;
  commit.sequence = sequence;
  commit.digest = *s.digest;
  commit.sender = config_.replica_index;
  broadcast(commit);
  check_committed(sequence);
}

void PbftReplica::handle_commit(const PbftMessage& msg) {
  if (msg.view != view_) return;
  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return;
  s.commits.insert(msg.sender);
  check_committed(msg.sequence);
}

void PbftReplica::check_committed(std::uint64_t sequence) {
  auto& s = slot(sequence);
  if (s.committed || !s.prepared || s.commits.size() < quorum()) return;
  s.committed = true;
  obs_slot_committed(s);
  sim_.cancel(s.timeout);
  try_execute();
}

void PbftReplica::try_execute() {
  for (;;) {
    const auto it = slots_.find(next_exec_);
    if (it == slots_.end() || !it->second.committed || it->second.executed) break;
    it->second.executed = true;
    obs_slot_executed(next_exec_, it->second);
    deliver_(next_exec_, it->second.payload);
    ++next_exec_;
  }
  // Checkpoint-lite: drop executed slots far behind the execution frontier.
  // Re-delivery is impossible regardless (execution is strictly in-order),
  // so this only bounds memory; late votes for a collected slot simply
  // accumulate in a fresh (never-executing) slot entry.
  if (config_.gc_window > 0 && next_exec_ > config_.gc_window) {
    const std::uint64_t horizon = next_exec_ - config_.gc_window;
    for (auto it2 = slots_.begin(); it2 != slots_.end() && it2->first < horizon;) {
      if (!it2->second.executed) break;  // keep anything unexecuted
      sim_.cancel(it2->second.timeout);
      it2 = slots_.erase(it2);
    }
  }
}

void PbftReplica::arm_timeout(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // A slot can be re-armed (e.g. re-proposed after a view change); the old
  // timer must die with the old round or it fires against the new one and
  // triggers a spurious view change.
  sim_.cancel(s.timeout);
  s.timeout = sim_.schedule(config_.view_change_timeout, [this, sequence] {
    const auto it = slots_.find(sequence);
    if (it == slots_.end() || it->second.committed) return;
    if (timeouts_metric_ != nullptr) timeouts_metric_->inc();
    if (tracing()) {
      config_.obs->tracer.instant(config_.span_prefix + ".timeout", config_.span_track,
                                  {{"seq", std::to_string(sequence)}});
    }
    start_view_change();
  });
}

void PbftReplica::start_view_change() {
  if (view_change_in_progress_) return;
  view_change_in_progress_ = true;

  PbftMessage msg;
  msg.type = PbftMessage::Type::kViewChange;
  msg.view = view_ + 1;
  msg.sender = config_.replica_index;
  for (const auto& [seq, s] : slots_) {
    if (s.prepared && !s.executed && s.digest) {
      msg.prepared.push_back({seq, *s.digest, s.payload});
    }
  }
  // Record the own vote, then broadcast.
  view_change_votes_[msg.view][config_.replica_index] = msg.prepared;
  broadcast(msg);
  handle_view_change_quorum(/*candidate_view=*/msg.view);
}

void PbftReplica::handle_view_change(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  view_change_votes_[msg.view][msg.sender] = msg.prepared;

  // Join the view change once f+1 peers demand it (they cannot all be lying).
  if (!view_change_in_progress_ &&
      view_change_votes_[msg.view].size() >= f() + 1 &&
      !view_change_votes_[msg.view].contains(config_.replica_index)) {
    view_change_in_progress_ = true;
    PbftMessage own;
    own.type = PbftMessage::Type::kViewChange;
    own.view = msg.view;
    own.sender = config_.replica_index;
    for (const auto& [seq, s] : slots_) {
      if (s.prepared && !s.executed && s.digest) {
        own.prepared.push_back({seq, *s.digest, s.payload});
      }
    }
    view_change_votes_[msg.view][config_.replica_index] = own.prepared;
    broadcast(own);
  }
  handle_view_change_quorum(msg.view);
}

void PbftReplica::handle_view_change_quorum(std::uint64_t candidate_view) {
  const auto it = view_change_votes_.find(candidate_view);
  if (it == view_change_votes_.end() || it->second.size() < quorum()) return;
  const auto new_leader = static_cast<std::uint32_t>(candidate_view % config_.group_size);
  if (new_leader != config_.replica_index) return;
  if (candidate_view <= view_) return;

  // New leader: install the view and re-propose every prepared entry.
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

void PbftReplica::handle_new_view(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  const auto expected_leader = static_cast<std::uint32_t>(msg.view % config_.group_size);
  if (msg.sender != expected_leader) return;
  adopt_new_view(msg.view, msg.prepared);
}

void PbftReplica::adopt_new_view(std::uint64_t new_view,
                                 const std::vector<PbftMessage::PreparedEntry>& prepared) {
  view_ = new_view;
  view_change_in_progress_ = false;
  // Votes for the adopted view and everything below are settled; keeping
  // them would let stale (or spammed) view-change votes accumulate forever.
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(new_view));
  obs_view_installed(new_view);
  // Reset per-slot voting state for unexecuted slots; re-run consensus on
  // the carried-over prepared entries in the new view.
  std::uint64_t max_seq = next_exec_ - 1;
  for (auto& [seq, s] : slots_) {
    max_seq = std::max(max_seq, seq);
    if (s.executed) continue;
    sim_.cancel(s.timeout);
    obs_slot_reset(s);
    s.prepares.clear();
    s.commits.clear();
    s.prepared = false;
    s.committed = false;
    s.digest.reset();
    s.payload.clear();
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
  if (on_view_change_) on_view_change_(new_view);

  if (is_leader()) {
    for (const auto& e : prepared) {
      const auto it = slots_.find(e.sequence);
      if (it != slots_.end() && it->second.executed) continue;
      PbftMessage msg;
      msg.type = PbftMessage::Type::kPrePrepare;
      msg.view = view_;
      msg.sequence = e.sequence;
      msg.sender = config_.replica_index;
      msg.payload = e.payload;
      msg.digest = payload_digest(msg.payload);

      auto& s = slot(e.sequence);
      s.digest = msg.digest;
      s.payload = msg.payload;
      s.prepares.insert(config_.replica_index);
      obs_slot_accepted(e.sequence, s);
      arm_timeout(e.sequence);
      broadcast(msg);
    }
  }
}

// ---- observability hooks ----------------------------------------------
//
// Span model per slot, all on this replica's track:
//   {prefix}           accept -> execute       (the whole slot)
//     {prefix}.prepare accept -> prepared      (pre-prepare implied at start)
//     {prefix}.commit  prepared -> committed
// Phase durations also land in the bft.{prepare,commit,slot}_us histograms
// so runs without tracing still get timing distributions.

void PbftReplica::obs_slot_accepted_impl(std::uint64_t sequence, SlotState& s) {
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

void PbftReplica::obs_slot_prepared_impl(SlotState& s) {
  s.prepared_at = sim_.now();
  if (prepare_us_ != nullptr) {
    prepare_us_->record(static_cast<double>((s.prepared_at - s.accepted_at).as_micros()));
  }
  if (!tracing()) return;
  auto& tracer = config_.obs->tracer;
  tracer.end(s.phase_span);
  s.phase_span =
      tracer.begin_under(s.span, config_.span_prefix + ".commit", config_.span_track);
}

void PbftReplica::obs_slot_committed_impl(SlotState& s) {
  if (commit_us_ != nullptr) {
    commit_us_->record(static_cast<double>((sim_.now() - s.prepared_at).as_micros()));
  }
  if (!tracing()) return;
  config_.obs->tracer.end(s.phase_span);
  s.phase_span = obs::SpanId{};
}

void PbftReplica::obs_slot_executed_impl(std::uint64_t /*sequence*/, SlotState& s) {
  if (slot_us_ != nullptr) {
    slot_us_->record(static_cast<double>((sim_.now() - s.accepted_at).as_micros()));
  }
  if (!tracing()) return;
  config_.obs->tracer.end(s.span);
  s.span = obs::SpanId{};
}

void PbftReplica::obs_slot_reset_impl(SlotState& s) {
  if (!tracing()) {
    s.span = obs::SpanId{};
    s.phase_span = obs::SpanId{};
    return;
  }
  auto& tracer = config_.obs->tracer;
  tracer.end(s.phase_span);
  tracer.end(s.span);
  s.phase_span = obs::SpanId{};
  s.span = obs::SpanId{};
}

void PbftReplica::obs_view_installed_impl(std::uint64_t new_view) {
  if (view_changes_metric_ != nullptr) view_changes_metric_->inc();
  if (tracing()) {
    config_.obs->tracer.instant(config_.span_prefix + ".view_change", config_.span_track,
                                {{"view", std::to_string(new_view)}});
  }
}

}  // namespace curb::bft
