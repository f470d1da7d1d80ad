#include "curb/core/controller.hpp"

#include <algorithm>
#include <numeric>

#include "curb/core/codec.hpp"
#include "curb/core/network.hpp"

namespace curb::core {

using namespace curb::sim::literals;

namespace {
/// Keyed-span key for a cross-controller protocol stage: fold the first
/// bytes of the content digest with the instance id. The same (instance,
/// payload) yields the same key on every controller, which is what lets the
/// tracer stitch one AGREE / block-commit span out of many reporters.
std::uint64_t stage_key(std::uint32_t instance, const crypto::Hash256& digest) {
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < 8; ++i) k = (k << 8) | digest[i];
  return k ^ (static_cast<std::uint64_t>(instance) * 0x9e3779b97f4a7c15ULL);
}

/// Traced-event contract join key (DESIGN.md §9): the transactions a stage
/// span carries, as comma-separated "switch:request" pairs. Lets trace
/// analysis chain pkt_in -> agree -> block_commit without guessing by time.
std::string txns_attr(const std::vector<chain::Transaction>& txs) {
  std::string out;
  for (const chain::Transaction& tx : txs) {
    if (!out.empty()) out += ',';
    out += std::to_string(tx.switch_id());
    out += ':';
    out += std::to_string(tx.request_id());
  }
  return out;
}

std::string txns_attr_from_payload(const std::vector<std::uint8_t>& payload) {
  try {
    return txns_attr(deserialize_tx_list(payload));
  } catch (const std::exception&) {
    return {};
  }
}

/// The assignment a RE-ASS transaction carries; nullopt when its config
/// does not decode (nothing actionable).
std::optional<AssignmentState> carried_assignment(const chain::Transaction& tx) {
  try {
    return AssignmentState::deserialize(tx.config());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}
}  // namespace

Controller::Controller(std::uint32_t id, net::NodeId node, crypto::KeyPair key,
                       CurbNetwork& network)
    : id_{id},
      node_{node},
      key_{std::move(key)},
      network_{network},
      rng_{network.options().seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))} {}

void Controller::initialize(const AssignmentState& state,
                            std::shared_ptr<const chain::Block> genesis) {
  state_ = state;
  blockchain_ = std::make_unique<chain::Blockchain>(std::move(genesis));
  blockchain_->set_observatory(network_.observatory(), "ctrl-" + std::to_string(id_));
  rebuild_replicas();
}

void Controller::remember_instances(const AssignmentState& state) {
  for (const GroupInfo& g : state.groups()) {
    known_instances_[AssignmentState::instance_id_of(g.members)] = g.members;
  }
}

void Controller::rebuild_replicas() {
  // --- Intra-group replicas: diff by membership-stable instance id.
  // Instances whose member set is unchanged survive with all their PBFT
  // state and in-flight proposals; only genuinely new/removed groups churn.
  std::map<std::uint32_t, const GroupInfo*> wanted;
  for (const std::uint32_t gid : state_.groups_of_controller(id_)) {
    const GroupInfo& group = state_.group(gid);
    wanted.emplace(AssignmentState::instance_id_of(group.members), &group);
  }
  // Record every group of the adopted epoch (not only own memberships) so
  // final-committee AGREE validation covers all instances.
  remember_instances(state_);

  // Retire (not destroy) replicas whose group dissolved, and resume retired
  // ones whose membership came back.
  const sim::SimTime grace = network_.options().pbft_timeout * 4;
  for (auto& [id, instance] : instances_) {
    const bool dissolved = !wanted.contains(id);
    if (instance.replica == nullptr || instance.retired == dissolved) continue;
    instance.retired = dissolved;
    if (!dissolved) continue;  // resurrected
    network_.simulator().schedule(grace, [this, id = id] {
      const auto it = instances_.find(id);
      if (it == instances_.end() || !it->second.retired) return;  // resurrected meanwhile
      network_.simulator().cancel(it->second.reass_window.timer);
      auto outstanding = std::move(it->second.outstanding);
      instances_.erase(it);
      // Its proposals may still reach the chain, and apply_block clears them.
      if (!outstanding.empty()) instances_[id].outstanding = std::move(outstanding);
    });
  }
  for (const auto& [id, group] : wanted) {
    Instance& instance = instances_[id];
    if (instance.replica != nullptr) continue;
    instance.replica = build_replica(id, group->members, group->leader);
    instance.replica->set_on_view_change([this, id = id](std::uint64_t) {
      rehandle_pending(id);
    });
  }

  // --- Final replica: preserved while the committee is unchanged. On a
  // committee change the AGREE bookkeeping and block buffer are KEPT.
  const auto& committee = state_.final_committee();
  ever_committee_.insert(committee.begin(), committee.end());
  const bool member_now = state_.in_final_committee(id_);
  const bool committee_changed = committee_.members != committee;
  // Hand over the confirmed backlog: former members re-AGREE everything not
  // yet on chain to the incoming committee, so the new leader can seal it.
  if (!committee_.members.empty() && committee_changed) {
    for (const ConfirmedTxList& confirmed : committee_.block_buffer) {
      AgreeMsg agree{confirmed.instance, id_, confirmed.bytes};
      for (const std::uint32_t member : committee) {
        if (member == id_) continue;  // self re-delivery handled below
        send_to_controller(member, CurbMessage{agree});
      }
    }
  }
  if (!member_now) {
    retire_final_replica();
    committee_ = {};
  } else if (committee_changed) {
    retire_final_replica();
    committee_.replica = build_replica(PbftEnvelope::kFinalInstance, committee,
                                       state_.final_leader());
    committee_.members = committee;
    committee_.proposal_in_flight = false;
    if (!committee_.block_buffer.empty() && committee_.replica->is_leader()) {
      network_.simulator().schedule(sim::SimTime::zero(),
                                    [this] { flush_block_buffer(); });
    }
  }

  // Replay AGREEs that arrived before this node adopted their instance.
  if (!orphan_agrees_.empty() && member_now) {
    const sim::SimTime now = network_.simulator().now();
    const sim::SimTime max_age = network_.options().pbft_timeout * 4;
    std::vector<std::pair<sim::SimTime, AgreeMsg>> orphans;
    orphans.swap(orphan_agrees_);
    for (auto& [when, agree] : orphans) {
      if (now - when > max_age) continue;  // expired
      network_.simulator().schedule(sim::SimTime::zero(),
                                    [this, agree = std::move(agree)] { on_agree(agree); });
    }
  }
}

std::unique_ptr<bft::ConsensusReplica> Controller::build_replica(
    std::uint32_t instance, const std::vector<std::uint32_t>& members, std::uint32_t leader) {
  const CurbOptions& options = network_.options();
  const bool final_layer = instance == PbftEnvelope::kFinalInstance;
  const auto index_of = [&members](std::uint32_t controller) {
    return static_cast<std::uint32_t>(
        std::find(members.begin(), members.end(), controller) - members.begin());
  };
  bft::ReplicaConfig cfg;
  cfg.replica_index = index_of(id_);
  cfg.group_size = members.size();
  cfg.view_change_timeout = options.pbft_timeout;
  cfg.initial_view = index_of(leader);  // view v has leader v % n
  cfg.obs = network_.observatory();
  if (cfg.obs != nullptr) {
    cfg.span_track = "ctrl-" + std::to_string(id_);
    cfg.span_prefix = final_layer ? "final_pbft" : "intra_pbft";
    cfg.span_attrs = {{"controller", std::to_string(id_)},
                      final_layer ? std::pair{"epoch", std::to_string(state_.epoch())}
                                  : std::pair{"instance", std::to_string(instance)}};
  }
  if (options.verify_signatures) {
    cfg.validate_payload = [this, final_layer](const std::vector<std::uint8_t>& payload) {
      if (!final_layer) return network_.tx_list_signed(bft::payload_digest(payload), payload);
      try {
        return network_.validated_block(chain::Block::deserialize_header(payload).hash(),
                                        payload) != nullptr;
      } catch (const std::exception&) {
        return false;  // truncated header
      }
    };
  }
  return bft::make_replica(
      options.consensus_engine, cfg, network_.simulator(),
      [this, instance, members](std::uint32_t dest, const bft::PbftMessage& msg) {
        PbftEnvelope envelope{instance, state_.epoch(), msg};
        send_to_controller(members[dest], CurbMessage{std::move(envelope)});
      },
      [this, instance](std::uint64_t, const std::vector<std::uint8_t>& payload) {
        if (instance == PbftEnvelope::kFinalInstance) {
          on_final_committed(payload);
        } else {
          on_intra_committed(instance, payload);
        }
      });
}

void Controller::retire_final_replica() {
  if (committee_.replica == nullptr) return;
  // The committee change that retires this replica is often COMMITTED BY this
  // replica: rebuild_replicas() runs inside its deliver_ callback, with its
  // try_execute() frame still on the stack. Destroying it here is a
  // use-after-free, so park it on the event queue and let it die only after
  // the stack unwinds.
  network_.simulator().schedule(
      sim::SimTime::zero(),
      [doomed = std::shared_ptr<bft::ConsensusReplica>(std::move(committee_.replica))] {});
}

void Controller::set_behavior(bft::Behavior behavior) { behavior_ = behavior; }

void Controller::set_lazy_range(sim::SimTime lo, sim::SimTime hi) {
  lazy_min_ = lo;
  lazy_max_ = hi;
}

void Controller::set_replica_behavior(bft::Behavior behavior) {
  for (auto& [id, instance] : instances_) {
    if (instance.replica != nullptr) instance.replica->set_behavior(behavior);
  }
  if (committee_.replica != nullptr) committee_.replica->set_behavior(behavior);
}

void Controller::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Drop every piece of volatile state. Timers already in the simulator
  // queue fire against the cleared tables and no-op; the RE-ASS window
  // timers are cancelled so they cannot re-arm anything.
  for (auto& [id, instance] : instances_) {
    network_.simulator().cancel(instance.reass_window.timer);
  }
  instances_.clear();
  committee_ = {};
  known_instances_.clear();
  blockchain_.reset();
  handled_requests_.clear();
  committed_requests_.clear();
  ever_committee_.clear();
  orphan_agrees_.clear();
  final_agree_votes_.clear();
  applied_blocks_.clear();
  policy_table_ = {};
  // A restarted process comes back honest; whatever misbehaviour was
  // injected died with it.
  behavior_ = bft::Behavior::kHonest;
  bad_config_ = false;
}

void Controller::restart_from(const chain::Blockchain& donor) {
  if (!crashed_) return;
  crashed_ = false;
  // Cold start from the replicated ledger (the paper's trust anchor): the
  // genesis block carries the Step-0 assignment, every later block carries
  // the committed requests and reassignments. Replaying them rebuilds the
  // assignment view, the served-request set, and the policy table without
  // trusting any single peer beyond the chain's own hash links.
  // The donor's blocks are shared, not copied; append still checks each one.
  blockchain_ = std::make_unique<chain::Blockchain>(donor.shared_at(0));
  blockchain_->set_observatory(network_.observatory(), "ctrl-" + std::to_string(id_));
  state_ = network_.genesis_state();
  remember_instances(state_);
  for (std::uint64_t h = 1; h <= donor.height(); ++h) {
    const chain::Block& block = donor.at(h);
    if (blockchain_->append(donor.shared_at(h))) break;  // donor chain broken: stop here
    applied_blocks_.insert(block.hash());
    for (const chain::Transaction& tx : block.transactions()) {
      committed_requests_.insert({tx.switch_id(), tx.request_id()});
      if (tx.type() == chain::RequestType::kReassign) {
        std::optional<AssignmentState> next = carried_assignment(tx);
        if (!next) continue;
        remember_instances(*next);
        if (supersedes(*next)) state_ = std::move(*next);
      } else if (tx.type() == chain::RequestType::kPolicyUpdate) {
        apply_policy_update(tx);
      }
    }
  }
  rebuild_replicas();
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    obsy->metrics.counter("core.controller_restarts").inc();
  }
}

void Controller::send(net::NodeId dest, CurbMessage msg) {
  if (crashed_) return;
  switch (behavior_) {
    case bft::Behavior::kSilent:
      return;  // byzantine: withhold everything
    case bft::Behavior::kLazy: {
      const auto extra_us = rng_.next_in(lazy_min_.as_micros(), lazy_max_.as_micros());
      const std::size_t bytes = wire_size(msg);
      const std::string category = category_of(msg);
      network_.simulator().schedule(
          sim::SimTime::micros(extra_us),
          [this, dest, msg = std::move(msg), bytes, category]() mutable {
            network_.bus().send(node_, dest, std::move(msg), bytes, category);
          });
      return;
    }
    case bft::Behavior::kSelectiveSilent:
      if (dest.value % 2 == 0) return;  // withhold from even-numbered nodes
      break;
    case bft::Behavior::kStaleViewSpam:
      // Participate honestly, but ride every PBFT send with a view-change
      // vote for a view far ahead of the current one — ammunition against
      // unbounded view_change_votes_ bookkeeping (curb::fault).
      if (const auto* env = std::get_if<PbftEnvelope>(&msg)) {
        PbftEnvelope spam = *env;
        spam.message = {};
        spam.message.type = bft::PbftMessage::Type::kViewChange;
        spam.message.view = env->message.view + 2 + (stale_spam_counter_++ % 8);
        spam.message.sender = env->message.sender;
        network_.bus().send(node_, dest, CurbMessage{spam}, spam.wire_size(),
                            category_of(CurbMessage{spam}));
      }
      break;
    case bft::Behavior::kEquivocate:
    case bft::Behavior::kHonest:
      break;
  }
  const std::size_t bytes = wire_size(msg);
  const std::string category = category_of(msg);
  network_.bus().send(node_, dest, std::move(msg), bytes, category);
}

void Controller::send_to_controller(std::uint32_t controller_id, CurbMessage msg) {
  send(network_.controller_topo_node(controller_id), std::move(msg));
}

void Controller::broadcast_to_controllers(
    const std::vector<std::uint32_t>& controllers, CurbMessage msg) {
  if (crashed_) return;
  if (behavior_ != bft::Behavior::kHonest) {
    // Byzantine behaviors are destination-dependent (selective silence,
    // per-send lazy jitter, spam riders) — keep the per-dest path.
    for (const std::uint32_t c : controllers) {
      if (c == id_) continue;
      send_to_controller(c, msg);
    }
    return;
  }
  std::vector<net::NodeId> dests;
  dests.reserve(controllers.size());
  for (const std::uint32_t c : controllers) {
    if (c == id_) continue;
    dests.push_back(network_.controller_topo_node(c));
  }
  if (dests.empty()) return;
  const std::size_t bytes = wire_size(msg);
  const std::string category = category_of(msg);
  network_.bus().multicast(node_, dests, std::move(msg), bytes, category);
}

bft::ConsensusReplica* Controller::replica_for(std::uint32_t instance) {
  if (instance == PbftEnvelope::kFinalInstance) return committee_.replica.get();
  const auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.replica.get();
}

std::optional<std::uint32_t> Controller::first_led_instance() const {
  for (const auto& [id, instance] : instances_) {
    if (instance.replica != nullptr && !instance.retired && instance.replica->is_leader()) {
      return id;
    }
  }
  return std::nullopt;
}

void Controller::on_message(net::NodeId /*from*/, const CurbMessage& msg) {
  if (crashed_) return;  // fail-stop: a crashed controller hears nothing
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, sdn::RequestMsg>) {
          on_request(m);
        } else if constexpr (std::is_same_v<T, PbftEnvelope>) {
          on_pbft_envelope(net::NodeId{}, m);
        } else if constexpr (std::is_same_v<T, AgreeMsg>) {
          on_agree(m);
        } else if constexpr (std::is_same_v<T, FinalAgreeMsg>) {
          on_final_agree(m);
        }
        // ReplyMsg / GroupUpdateMsg / DataPacketMsg are switch-bound.
      },
      msg);
}

// --- Northbound API ------------------------------------------------------------

namespace {
/// Sentinel switch id for switch-less (northbound) transactions.
constexpr std::uint32_t kNorthboundSentinel = 0xffffffff;
}  // namespace

std::uint64_t Controller::submit_policy(const sdn::PolicyRule& rule, PolicyOp op) {
  // Request ids live in a per-controller namespace so concurrent
  // submissions at different controllers never collide.
  const std::uint64_t request_id =
      (static_cast<std::uint64_t>(id_) << 40) | next_policy_request_++;
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(op));
  const auto rule_bytes = rule.serialize();
  payload.insert(payload.end(), rule_bytes.begin(), rule_bytes.end());
  const sdn::RequestMsg request{chain::RequestType::kPolicyUpdate, kNorthboundSentinel,
                                request_id, std::move(payload)};

  // A leader funnels the update into one of its groups; a non-leader hands
  // it to the leader of its first group.
  if (const auto led = first_led_instance()) {
    handle_request_as_leader(*led, request);
  } else if (const auto groups = state_.groups_of_controller(id_); !groups.empty()) {
    send_to_controller(state_.group(groups.front()).leader, CurbMessage{request});
  }
  return request_id;
}

void Controller::apply_policy_update(const chain::Transaction& tx) {
  const auto& config = tx.config();
  if (config.empty()) return;
  try {
    const auto op = static_cast<PolicyOp>(config[0]);
    const auto rule = sdn::PolicyRule::deserialize(
        std::span<const std::uint8_t>{config.data() + 1, config.size() - 1});
    if (op == PolicyOp::kRemove) {
      policy_table_.remove(rule);
    } else {
      policy_table_.install(rule);
    }
  } catch (const std::exception&) {
    // Malformed on-chain policy: ignore (consensus already vetted honest
    // majority; this guards against decode issues only).
  }
}

// --- Step 1/2: request intake ------------------------------------------------

void Controller::on_request(const sdn::RequestMsg& request) {
  if (request.type == chain::RequestType::kPolicyUpdate) {
    // Northbound update forwarded by a peer: sequence it through a group
    // this controller leads.
    if (const auto led = first_led_instance()) handle_request_as_leader(*led, request);
    return;
  }
  if (request.switch_id >= state_.assignment().num_switches()) return;
  const std::uint32_t gid = state_.group_of_switch(request.switch_id);
  const GroupInfo& group = state_.group(gid);
  if (std::find(group.members.begin(), group.members.end(), id_) == group.members.end()) {
    return;  // not in ctrList_s: ignore (Algorithm 3 line 3)
  }
  const RequestKey key{request.switch_id, request.request_id};
  if (committed_requests_.contains(key)) return;

  const std::uint32_t instance = state_.instance_of_group(gid);
  instances_[instance].pending.emplace(key, request);
  arm_request_watchdog(instance, request);

  bft::ConsensusReplica* replica = replica_for(instance);
  if (replica != nullptr && replica->is_leader()) {
    handle_request_as_leader(instance, request);
  }
}

void Controller::handle_request_as_leader(std::uint32_t instance,
                                          const sdn::RequestMsg& request) {
  const RequestKey key{request.switch_id, request.request_id};
  if (handled_requests_.contains(key)) return;  // reqBuffer dedup (Alg. 2 line 7)
  handled_requests_.insert(key);
  compute_config_and_buffer(instance, request);
}

void Controller::compute_config_and_buffer(std::uint32_t instance,
                                           const sdn::RequestMsg& request) {
  if (request.type == chain::RequestType::kPacketIn) {
    buffer_transaction(instance, request, compute_packet_in_config(request));
    return;
  }
  if (request.type == chain::RequestType::kPolicyUpdate) {
    // The policy op + rule pass through as the config; every controller
    // applies them at commit time (state machine replication).
    buffer_transaction(instance, request, request.payload);
    return;
  }
  handle_reassign_request(instance, request);
}

void Controller::buffer_transaction(std::uint32_t instance, const sdn::RequestMsg& request,
                                    std::vector<std::uint8_t> config) {
  const auto it = instances_.find(instance);
  if (it == instances_.end() || it->second.replica == nullptr) return;  // expired meanwhile
  chain::Transaction tx{request.type, request.switch_id, id_, request.request_id,
                        std::move(config)};
  if (network_.options().verify_signatures) tx.sign(key_);
  it->second.request_buffer.push_back(std::move(tx));
  flush_request_buffer(instance);
}

void Controller::handle_reassign_request(std::uint32_t instance,
                                         const sdn::RequestMsg& request) {
  // RE-ASS accusations arriving within the aggregation window are merged
  // into one OP() solve (paper exp. 2: three byzantine nodes removed by
  // calculating OP once).
  ReassWindow& window = instances_[instance].reass_window;
  window.requests.push_back(request);
  std::vector<std::uint32_t> accused_ids;
  try {
    accused_ids = deserialize_id_list(request.payload);
  } catch (const std::exception&) {
    return;  // malformed accusation payload (corrupted in flight)
  }
  for (const std::uint32_t accused : accused_ids) {
    if (accused < state_.assignment().num_controllers()) window.accused.push_back(accused);
  }
  if (!window.timer.valid()) {
    window.timer = network_.simulator().schedule(
        network_.options().reass_aggregation_delay,
        [this, instance] { flush_reass_window(instance); });
  }
}

void Controller::flush_reass_window(std::uint32_t instance) {
  const auto it = instances_.find(instance);
  if (it == instances_.end()) return;
  ReassWindow window = std::exchange(it->second.reass_window, {});
  if (window.requests.empty()) return;

  // Algorithm 2 lines 15-18: merge the accused ids with the known byzantine
  // set, remove them from ctrList, re-run OP().
  std::vector<std::uint32_t> byzantine = state_.byzantine();
  byzantine.insert(byzantine.end(), window.accused.begin(), window.accused.end());
  std::sort(byzantine.begin(), byzantine.end());
  byzantine.erase(std::unique(byzantine.begin(), byzantine.end()), byzantine.end());

  if (byzantine.size() == state_.byzantine().size() &&
      !network_.options().reass_always_solve) {
    // Nothing new to remove: answer with the current assignment so the
    // switches still get a quorum-backed ctrList.
    for (const auto& request : window.requests) {
      buffer_transaction(instance, request, state_.serialize());
    }
    return;
  }

  // [C2.6]: keep surviving leaders in place to limit link churn.
  std::vector<std::optional<int>> fixed_leaders(state_.assignment().num_switches(),
                                                std::nullopt);
  for (const GroupInfo& g : state_.groups()) {
    if (std::binary_search(byzantine.begin(), byzantine.end(), g.leader)) continue;
    for (const std::uint32_t sw : g.switches) fixed_leaders[sw] = static_cast<int>(g.leader);
  }

  const opt::CapInstance cap = network_.build_cap_instance(byzantine, fixed_leaders);
  const opt::Assignment previous = state_.assignment();
  const std::uint64_t next_epoch = blockchain_->height() + 1;
  const std::size_t f = state_.f();
  network_.solve_op_async(
      cap, network_.options().reassign_objective, &previous,
      [this, instance, requests = std::move(window.requests), byzantine, next_epoch,
       f](const opt::CapResult& result) {
        ++stats_.op_solves;
        stats_.op_solve_time_ms_total += result.stats.wall_time_ms;
        if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
          obsy->metrics.counter("core.reass_solves").inc();
        }
        if (!result.feasible) return;  // cannot reassign: drop the request
        const AssignmentState next =
            AssignmentState::build(result.assignment, f, next_epoch, byzantine, &state_);
        const auto config = next.serialize();
        for (const auto& request : requests) {
          buffer_transaction(instance, request, config);
        }
      });
}

std::vector<std::uint8_t> Controller::compute_packet_in_config(
    const sdn::RequestMsg& request) const {
  const sdn::Packet packet = deserialize_packet(request.payload);
  // Northbound policy check: a denied pair gets a high-priority drop rule
  // for exactly that (src, dst) instead of a forwarding rule.
  if (!policy_table_.allows(packet.src_host, packet.dst_host)) {
    sdn::FlowEntry drop;
    drop.match.dst_host = packet.dst_host;
    drop.match.src_host = packet.src_host;
    drop.action = {sdn::FlowAction::Kind::kDrop, 0};
    drop.priority = 100;
    return sdn::FlowEntry::serialize_list({drop});
  }
  const auto entries = network_.compute_flow_entries(request.switch_id, packet);
  return sdn::FlowEntry::serialize_list(entries);
}

void Controller::flush_request_buffer(std::uint32_t instance) {
  const auto it = instances_.find(instance);
  if (it == instances_.end()) return;
  Instance& record = it->second;
  if (record.request_buffer.empty()) return;
  if (record.replica == nullptr || !record.replica->is_leader()) return;

  // Non-parallel mode: wait until this group's previous txList is on-chain
  // (intra-group consensus and final consensus never overlap for a group).
  if (!network_.options().parallel && !record.outstanding.empty()) return;  // resumes at apply

  const std::vector<chain::Transaction> txs = std::exchange(record.request_buffer, {});
  for (const auto& tx : txs) record.outstanding.insert(tx.id());
  record.replica->propose(serialize_tx_list(txs));
}

// --- Step 2 -> 3: intra-group consensus completes -----------------------------

void Controller::on_pbft_envelope(net::NodeId /*from*/, const PbftEnvelope& envelope) {
  // Routing is purely by instance id: messages for dissolved groups find no
  // replica and are dropped; surviving instances keep consuming messages
  // that were in flight across a reassignment.
  bft::ConsensusReplica* replica = replica_for(envelope.instance);
  if (replica != nullptr) replica->on_message(envelope.message);
}

void Controller::on_intra_committed(std::uint32_t instance,
                                    const std::vector<std::uint8_t>& payload) {
  // AGREE stage span: opened by whichever group member commits first,
  // closed when a committee member assembles the f+1 quorum.
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    const auto digest = bft::payload_digest(payload);
    obsy->tracer.begin_keyed(stage_key(instance, digest), "agree", "protocol",
                             {{"instance", std::to_string(instance)},
                              {"digest", crypto::short_hex(digest, 8)},
                              {"txns", txns_attr_from_payload(payload)}});
  }
  // Algorithm 3 line 12: broadcast AGREE to the final committee — one
  // shared payload buffer across every committee member.
  AgreeMsg agree{instance, id_, payload};
  broadcast_to_controllers(state_.final_committee(), CurbMessage{agree});
  if (state_.in_final_committee(id_)) on_agree(agree);  // local delivery
}

void Controller::on_agree(const AgreeMsg& agree) {
  if (!state_.in_final_committee(id_)) return;
  const auto members_it = known_instances_.find(agree.instance);
  if (members_it == known_instances_.end()) {
    // This node may simply not have adopted the epoch that creates the
    // instance yet; park the AGREE and replay it after the next adoption.
    constexpr std::size_t kMaxOrphans = 4096;
    if (orphan_agrees_.size() < kMaxOrphans) {
      orphan_agrees_.push_back({network_.simulator().now(), agree});
    }
    return;
  }
  const auto& members = members_it->second;
  const bool from_group_member =
      std::find(members.begin(), members.end(), agree.sender_controller) != members.end();
  // Committee-handover forwards come from (former) committee members.
  const bool from_committee = ever_committee_.contains(agree.sender_controller);
  if (!from_group_member && !from_committee) {
    return;  // AGREE must come from a member of the claimed group
  }
  const auto digest = bft::payload_digest(agree.tx_list);
  // A vote only counts for a txList whose transaction signatures check out;
  // the network's digest-keyed memo makes every AGREE after the first for
  // the same list free, at every controller.
  if (network_.options().verify_signatures && !network_.tx_list_signed(digest, agree.tx_list)) {
    return;
  }
  AgreeTally& tally = committee_.agree_votes[AgreeKey{agree.instance, digest}];
  tally.votes.insert(agree.sender_controller);
  // f+1 matching AGREEs guarantee one honest group member vouches.
  if (tally.votes.size() < state_.f() + 1 || tally.buffered) return;
  tally.buffered = true;
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    obsy->tracer.end_keyed(stage_key(agree.instance, digest));
    obsy->metrics.counter("core.agree_quorums").inc();
  }

  // EVERY committee member buffers the confirmed txList; only the leader
  // drains the buffer into block proposals. If leadership moves (committee
  // change after a reassignment), the new leader still holds the backlog.
  ConfirmedTxList confirmed{agree.instance, agree.tx_list, std::nullopt};
  try {
    confirmed.txs = deserialize_tx_list(agree.tx_list);
  } catch (const std::exception&) {
    // Kept undecoded: a malformed txList must not take the leader down.
  }
  committee_.block_buffer.push_back(std::move(confirmed));
  flush_block_buffer();
}

void Controller::flush_block_buffer() {
  if (committee_.block_buffer.empty()) return;
  if (committee_.replica == nullptr || !committee_.replica->is_leader()) return;
  if (committee_.proposal_in_flight) return;  // resumes when the block lands
  // Algorithm 3 line 19: serialize all buffered txLists into block B_h,
  // skipping transactions that already reached the chain.
  std::vector<chain::Transaction> txs;
  std::unordered_set<crypto::Hash256, crypto::DigestHash> seen;
  for (ConfirmedTxList& confirmed : committee_.block_buffer) {
    if (!confirmed.txs) continue;  // undecodable
    for (chain::Transaction& tx : *confirmed.txs) {
      const crypto::Hash256& id = tx.id();
      if (!blockchain_->contains_transaction(id) && seen.insert(id).second) {
        txs.push_back(std::move(tx));
      }
    }
  }
  committee_.block_buffer.clear();
  if (txs.empty()) return;

  const chain::Block block = chain::Block::create(
      blockchain_->height() + 1, blockchain_->tip().hash(), std::move(txs),
      static_cast<std::uint64_t>(network_.simulator().now().as_micros()), id_);
  // block_commit stage span: proposal at the final leader -> first
  // controller to apply the block (keyed by the block hash). The digest attr
  // is the Final-PBFT payload digest, joining this stage to the final_pbft
  // slot spans; txns joins it back to the pkt_in round spans.
  auto block_bytes = block.serialize();
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    obsy->tracer.begin_keyed(
        stage_key(PbftEnvelope::kFinalInstance, block.hash()), "block_commit", "protocol",
        {{"height", std::to_string(block.header().height)},
         {"txs", std::to_string(block.transactions().size())},
         {"digest", crypto::short_hex(bft::payload_digest(block_bytes), 8)},
         {"txns", txns_attr(block.transactions())}});
  }
  ++stats_.blocks_proposed;
  committee_.proposal_in_flight = true;
  committee_.replica->propose(std::move(block_bytes));
}

// --- Step 3 -> 4: final consensus completes -----------------------------------

void Controller::on_final_committed(const std::vector<std::uint8_t>& payload) {
  // Algorithm 3 line 25: broadcast FINAL-AGREE to every controller — the
  // serialized block rides one shared buffer instead of n-1 copies.
  FinalAgreeMsg msg{id_, payload};
  std::vector<std::uint32_t> everyone(network_.num_controllers());
  std::iota(everyone.begin(), everyone.end(), 0);
  broadcast_to_controllers(everyone, CurbMessage{msg});
  on_final_agree(msg);
}

void Controller::on_final_agree(const FinalAgreeMsg& msg) {
  if (!state_.in_final_committee(msg.sender_controller)) return;
  // An applied block is recognised from its header alone, before the body
  // is looked at.
  crypto::Hash256 hash{};
  try {
    hash = chain::Block::deserialize_header(msg.block).hash();
  } catch (const std::exception&) {
    return;  // malformed
  }
  if (applied_blocks_.contains(hash)) return;
  // Decode, Merkle check and (with verify_signatures) the signature check
  // run once per network for every controller; a corrupted copy that keeps
  // the header is checked on its own.
  const std::shared_ptr<const chain::Block> block = network_.validated_block(hash, msg.block);
  if (block == nullptr) return;  // malformed, Merkle mismatch or forged transaction
  const auto tally = final_agree_votes_.try_emplace(hash).first;
  tally->second.insert(msg.sender_controller);
  // Algorithm 3 line 27: f+1 matching FINAL-AGREE confirm validity.
  if (tally->second.size() < state_.f() + 1) return;
  applied_blocks_.insert(hash);
  // apply_block can re-enter on_final_agree, so the tally goes first.
  final_agree_votes_.erase(tally);
  apply_block(block);
}

void Controller::apply_block(const std::shared_ptr<const chain::Block>& shared) {
  if (blockchain_->append(shared).has_value()) return;  // rejected (stale/duplicate)
  const chain::Block& block = *shared;
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    obsy->tracer.end_keyed(stage_key(PbftEnvelope::kFinalInstance, block.hash()));
  }
  // Clear per-group outstanding transactions and resume groups gated by
  // non-parallel mode.
  for (const chain::Transaction& tx : block.transactions()) {
    const auto tx_id = tx.id();
    for (auto& [id, instance] : instances_) {
      if (instance.outstanding.erase(tx_id) > 0 && instance.outstanding.empty()) {
        network_.simulator().schedule(sim::SimTime::zero(),
                                      [this, id = id] { flush_request_buffer(id); });
      }
    }
  }
  // Drop buffered txLists fully covered by the chain (every member buffers;
  // this is the non-leader's drain path) and undecodable ones.
  std::erase_if(committee_.block_buffer, [&](const ConfirmedTxList& confirmed) {
    if (!confirmed.txs) return true;
    return std::all_of(confirmed.txs->begin(), confirmed.txs->end(),
                       [&](const chain::Transaction& tx) {
                         return blockchain_->contains_transaction(tx.id());
                       });
  });
  // The final leader may now seal the next block.
  committee_.proposal_in_flight = false;
  if (!committee_.block_buffer.empty() && committee_.replica != nullptr &&
      committee_.replica->is_leader()) {
    network_.simulator().schedule(sim::SimTime::zero(), [this] { flush_block_buffer(); });
  }

  // First pass: adopt any reassignment (it changes who replies from where).
  // A reassignment TX computed against an older epoch ("stale") may carry
  // accusations that the winning reassignment did not absorb; such requests
  // are re-handled against fresh state by the current group leader instead
  // of being answered, so concurrent reassignments eventually all resolve
  // (the byzantine set grows monotonically, guaranteeing progress).
  std::vector<const chain::Transaction*> reply_list;
  for (const chain::Transaction& tx : block.transactions()) {
    // Accusations the adopted assignment has not absorbed.
    std::vector<std::uint32_t> unresolved;
    if (tx.type() == chain::RequestType::kReassign) {
      if (std::optional<AssignmentState> proposed = carried_assignment(tx)) {
        if (supersedes(*proposed)) {
          adopt(std::move(*proposed), tx.switch_id(), block.header().height);
        } else {
          std::ranges::set_difference(proposed->byzantine(), state_.byzantine(),
                                      std::back_inserter(unresolved));
        }
      }
    } else if (tx.type() == chain::RequestType::kPolicyUpdate) {
      apply_policy_update(tx);
    }
    if (unresolved.empty()) {
      const RequestKey key{tx.switch_id(), tx.request_id()};
      committed_requests_.insert(key);
      for (auto& [id, instance] : instances_) instance.pending.erase(key);
      reply_list.push_back(&tx);
    } else {
      rehandle_stale_reassignment(tx, unresolved);
    }
  }
  // Second pass: REPLY to the requesting switches (Algorithm 3 line 30).
  for (const chain::Transaction* tx : reply_list) {
    send_replies_for(*tx);
  }
}

bool Controller::supersedes(const AssignmentState& next) const {
  // A config computed from an older snapshot may not cover the current
  // byzantine set; adopting it would resurrect an excluded controller. Both
  // lists are sorted (AssignmentState::build).
  return next.epoch() > state_.epoch() &&
         std::ranges::includes(next.byzantine(), state_.byzantine());
}

void Controller::rehandle_stale_reassignment(const chain::Transaction& tx,
                                             const std::vector<std::uint32_t>& unresolved) {
  if (tx.switch_id() >= state_.assignment().num_switches()) return;
  const std::uint32_t instance = state_.instance_of_group(state_.group_of_switch(tx.switch_id()));
  bft::ConsensusReplica* replica = replica_for(instance);
  if (replica == nullptr || !replica->is_leader()) return;
  // Run the unresolved accusations through the normal leader path with the
  // original request identity (the switch's pending request, if still open,
  // matches replies by that id).
  sdn::RequestMsg request{chain::RequestType::kReassign, tx.switch_id(), tx.request_id(),
                          serialize_id_list(unresolved)};
  handle_reassign_request(instance, request);
}

void Controller::adopt(AssignmentState next, std::uint32_t requester, std::uint64_t height) {
  const AssignmentState old_state = std::exchange(state_, std::move(next));
  if (obs::Observatory* obsy = network_.observatory(); obsy != nullptr) {
    obsy->metrics.counter("core.epoch_adoptions").inc();
    obsy->tracer.instant("epoch_adopt", "ctrl-" + std::to_string(id_),
                         {{"epoch", std::to_string(state_.epoch())}});
    network_.record_assignment_metrics(state_);
  }
  rebuild_replicas();

  // Re-route pending (uncommitted) requests to the new group structure: a
  // request stranded in a dissolved group must reach the NEW leader of its
  // switch's group, or it would only resolve through switch-side retries.
  std::map<std::uint32_t, std::map<RequestKey, sdn::RequestMsg>> moved;
  std::vector<std::pair<std::uint32_t, sdn::RequestMsg>> to_rehandle;
  for (auto& [old_id, instance] : instances_) {
    for (auto& [key, request] : instance.pending) {
      if (request.switch_id >= state_.assignment().num_switches()) continue;
      const std::uint32_t gid = state_.group_of_switch(request.switch_id);
      const GroupInfo& group = state_.group(gid);
      if (std::find(group.members.begin(), group.members.end(), id_) == group.members.end()) {
        continue;  // no longer responsible for this switch
      }
      const std::uint32_t id = state_.instance_of_group(gid);
      moved[id].emplace(key, request);
      if (id != old_id) to_rehandle.push_back({id, request});
    }
    instance.pending.clear();
  }
  for (auto& [id, requests] : moved) instances_[id].pending = std::move(requests);
  for (auto& [id, request] : to_rehandle) {
    bft::ConsensusReplica* replica = replica_for(id);
    if (replica == nullptr || !replica->is_leader()) continue;
    // Allow re-handling even if this node handled it under the old group.
    handled_requests_.erase(RequestKey{request.switch_id, request.request_id});
    handle_request_as_leader(id, request);
  }

  // Push group updates to switches whose group changed and where this
  // controller now serves (the requesting switch gets a REPLY separately).
  for (std::uint32_t sw = 0; sw < state_.assignment().num_switches(); ++sw) {
    if (sw == requester) continue;
    const GroupInfo& new_group = state_.group(state_.group_of_switch(sw));
    const bool is_member =
        std::find(new_group.members.begin(), new_group.members.end(), id_) !=
        new_group.members.end();
    if (!is_member) continue;
    bool changed = true;
    if (sw < old_state.assignment().num_switches()) {
      changed = old_state.group(old_state.group_of_switch(sw)).members != new_group.members;
    }
    if (!changed) continue;
    GroupUpdateMsg update{id_, sw, height, new_group.members};
    send(network_.switch_topo_node(sw), CurbMessage{std::move(update)});
  }
}

void Controller::send_replies_for(const chain::Transaction& tx) {
  const std::uint32_t sw = tx.switch_id();
  if (sw >= state_.assignment().num_switches()) return;
  const GroupInfo& group = state_.group(state_.group_of_switch(sw));
  if (std::find(group.members.begin(), group.members.end(), id_) == group.members.end()) {
    return;  // only ctrList_s members reply (the s-agent ignores others anyway)
  }
  std::vector<std::uint8_t> config = tx.config();
  if (tx.type() == chain::RequestType::kReassign) {
    // The switch needs its new ctrList, not the full assignment.
    config = serialize_id_list(group.members);
  }
  if (bad_config_ && !config.empty()) {
    config[0] ^= 0xff;  // byzantine: feed the switch a corrupted config
  }
  ReplyMsg reply{id_, sw, tx.request_id(), std::move(config)};
  send(network_.switch_topo_node(sw), CurbMessage{std::move(reply)});
}

// --- Liveness watchdog --------------------------------------------------------

void Controller::arm_request_watchdog(std::uint32_t instance,
                                      const sdn::RequestMsg& request) {
  const RequestKey key{request.switch_id, request.request_id};
  network_.simulator().schedule(
      network_.options().pbft_timeout, [this, instance, key] {
        const auto it = instances_.find(instance);
        if (it == instances_.end() || !it->second.pending.contains(key)) return;
        // The request is still unserved: depose the group leader.
        bft::ConsensusReplica* replica = replica_for(instance);
        if (replica != nullptr && !replica->is_leader()) replica->force_view_change();
      });
}

void Controller::rehandle_pending(std::uint32_t instance) {
  bft::ConsensusReplica* replica = replica_for(instance);
  if (replica == nullptr || !replica->is_leader()) return;
  for (const auto& [key, request] : instances_.at(instance).pending) {
    handle_request_as_leader(instance, request);
  }
}

}  // namespace curb::core
