#include "curb/core/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "curb/obs/res/account.hpp"

namespace curb::core {

CurbNetwork::CurbNetwork(net::Topology topology, CurbOptions options)
    : topology_{std::move(topology)}, options_{options}, sim_{options.seed} {
  // Referencing the accountant forces its object file (which carries the
  // global operator new/delete replacement) into every binary that links
  // curb::core — a static-library archive member is only pulled in when a
  // symbol of it is named.
  (void)obs::res::enabled();
  sigcache_baseline_ = crypto::SigCache::instance().stats();
  bus_ = std::make_unique<net::MessageBus<CurbMessage>>(sim_, topology_,
                                                        options_.link_model);
  // A telemetry stream and the SLO watchdog both need windows, and windows
  // need the registry: ts_out and slo_rules imply ts (100 ms windows unless
  // a width is given), and ts implies observability.
  if ((!options_.ts_out.empty() || !options_.slo_rules.empty()) &&
      options_.ts_window <= sim::SimTime::zero()) {
    options_.ts_window = sim::SimTime::millis(100);
  }
  if (options_.ts_window > sim::SimTime::zero()) options_.observability = true;
  if (options_.observability) {
    observatory_ = std::make_unique<obs::Observatory>();
    observatory_->enable(sim_);
    bus_->set_observatory(observatory_.get());
    options_.link_telemetry = true;
  }
  if (options_.link_telemetry) link_stats_ = std::make_unique<obs::net::LinkStats>();
  if (options_.msg_ledger) ledger_ = std::make_unique<obs::net::MsgLedger>();
  if (link_stats_ != nullptr || ledger_ != nullptr) {
    // Pure counting on the accounted-send path: never sends, schedules, or
    // draws randomness, so same-seed runs stay byte-identical with link
    // telemetry on.
    bus_->set_send_observer(
        [this](const net::MessageBus<CurbMessage>::SendRecord& rec,
               const CurbMessage& payload, const std::string& category) {
          if (link_stats_ != nullptr) {
            link_stats_->record(rec.from.value, rec.to.value, rec.bytes,
                                rec.duplicates, rec.dropped, category);
          }
          if (ledger_ != nullptr) {
            // Ledger rows carry wire counts: the accounted send plus any
            // fault-injected duplicate deliveries of it.
            ledger_->record(category, digest_of(payload), 1 + rec.duplicates,
                            rec.bytes * (1 + rec.duplicates));
          }
        });
  }
  if (options_.ts_window > sim::SimTime::zero()) {
    ts_ = std::make_unique<obs::TsCollector>(
        *observatory_, sim_,
        obs::TsOptions{options_.ts_window, options_.ts_retention});
    ts_->set_presample_hook([this] { snapshot_runtime_metrics(); });
    if (!options_.ts_out.empty() && !ts_->set_output(options_.ts_out)) {
      throw std::runtime_error{"CurbNetwork: cannot open ts_out file " +
                               options_.ts_out};
    }
    if (!options_.slo_rules.empty()) {
      // Throws obs::SloError on a malformed rule set (curb-sim pre-parses
      // for a friendlier message, like it does for fault specs).
      slo_ = std::make_unique<obs::SloEngine>(obs::SloRuleSet::parse(options_.slo_rules));
      ts_->set_window_callback(
          [this](const obs::TsCollector& collector, const obs::TsWindow&) {
            slo_->on_window(observatory_.get(), collector.windows());
          });
    }
  }
  controller_nodes_ = topology_.nodes_of_kind(net::NodeKind::kController);
  switch_nodes_ = topology_.nodes_of_kind(net::NodeKind::kSwitch);
  if (controller_nodes_.size() < 3 * options_.f + 1) {
    throw std::invalid_argument{
        "CurbNetwork: need at least 3f+1 controllers in the topology"};
  }
  if (switch_nodes_.empty()) {
    throw std::invalid_argument{"CurbNetwork: topology has no switches"};
  }
  if (!options_.fault_spec.empty()) {
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(options_.fault_spec, options_.fault_seed), topology_);
    install_fault_hook();
  }
}

void CurbNetwork::install_fault_hook() {
  bus_->set_fault_hook([this](net::NodeId from, net::NodeId to,
                              const CurbMessage& /*payload*/,
                              const std::string& category) {
    fault::LinkFaultDecision decision =
        fault_injector_->on_message(from, to, category, sim_.now());
    if (decision.any()) record_fault(decision, category);
    net::BusFaultAction<CurbMessage> action;
    action.drop = decision.drop;
    action.extra_delay = decision.extra_delay;
    action.duplicates = std::move(decision.duplicates);
    if (decision.corrupt && !decision.drop) {
      // The bus applies this through its copy-on-write path, so only the
      // corrupted delivery sees mutated bytes. Drawing from the injector's
      // RNG here keeps the fault stream position identical to the old
      // corrupt-in-hook flow.
      action.corrupt = [this](CurbMessage& payload) {
        corrupt_message(payload, fault_injector_->rng());
      };
    }
    return action;
  });
}

void CurbNetwork::record_fault(const fault::LinkFaultDecision& decision,
                               const std::string& category) {
  if (observatory_ == nullptr) return;
  for (const fault::FaultKind kind : decision.fired) {
    const std::string kind_name{fault::to_string(kind)};
    observatory_->metrics
        .counter("fault.injected", {{"kind", kind_name}, {"category", category}})
        .inc();
    observatory_->tracer.instant("fault." + kind_name, "fault",
                                 {{"category", category}});
  }
}

Controller* CurbNetwork::pick_recovery_donor() const {
  Controller* donor = nullptr;
  for (const auto& controller : controllers_) {
    if (controller->crashed()) continue;
    if (donor == nullptr ||
        controller->blockchain().height() > donor->blockchain().height()) {
      donor = controller.get();
    }
  }
  return donor;
}

void CurbNetwork::schedule_node_events() {
  for (const fault::NodeEventClause& ev : fault_injector_->plan().node_events) {
    if (ev.controller >= controllers_.size()) {
      throw std::invalid_argument{"fault plan names controller ctrl" +
                                  std::to_string(ev.controller) + ", deployment has " +
                                  std::to_string(controllers_.size())};
    }
    if (ev.kind == fault::NodeEventClause::Kind::kCrash) {
      sim_.schedule_at(ev.at, [this, ev] {
        controllers_[ev.controller]->crash();
        if (observatory_ != nullptr) {
          observatory_->metrics.counter("fault.injected", {{"kind", "crash"}}).inc();
          observatory_->tracer.instant(
              "fault.crash", "fault", {{"controller", std::to_string(ev.controller)}});
        }
        if (!ev.down) return;  // never restarts
        sim_.schedule(*ev.down, [this, id = ev.controller] {
          Controller* donor = pick_recovery_donor();
          if (donor == nullptr) return;  // nobody alive to recover from
          controllers_[id]->restart_from(donor->blockchain());
          if (observatory_ != nullptr) {
            observatory_->tracer.instant(
                "fault.restart", "fault",
                {{"controller", std::to_string(id)},
                 {"donor", std::to_string(donor->id())}});
          }
        });
      });
    } else {
      sim_.schedule_at(ev.at, [this, ev] {
        Controller& controller = *controllers_[ev.controller];
        switch (ev.mode) {
          case fault::ByzMode::kSilent:
            controller.set_behavior(bft::Behavior::kSilent);
            break;
          case fault::ByzMode::kLazy:
            controller.set_behavior(bft::Behavior::kLazy);
            break;
          case fault::ByzMode::kEquivocate:
            controller.set_behavior(bft::Behavior::kEquivocate);
            controller.set_replica_behavior(bft::Behavior::kEquivocate);
            break;
          case fault::ByzMode::kSelectiveSilent:
            controller.set_behavior(bft::Behavior::kSelectiveSilent);
            break;
          case fault::ByzMode::kStaleView:
            controller.set_behavior(bft::Behavior::kStaleViewSpam);
            break;
          case fault::ByzMode::kBogusReply:
            controller.set_bad_config(true);
            break;
        }
        if (observatory_ != nullptr) {
          const std::string mode_name{fault::to_string(ev.mode)};
          observatory_->metrics.counter("fault.injected", {{"kind", "byz"}}).inc();
          observatory_->tracer.instant(
              "fault.byz", "fault",
              {{"controller", std::to_string(ev.controller)}, {"mode", mode_name}});
        }
      });
    }
  }
}

obs::net::NodeNameFn CurbNetwork::link_node_names() const {
  return [this](std::uint32_t idx) {
    return idx < topology_.node_count() ? topology_.node(net::NodeId{idx}).name
                                        : std::to_string(idx);
  };
}

net::NodeId CurbNetwork::controller_topo_node(std::uint32_t id) const {
  return controller_nodes_.at(id);
}

net::NodeId CurbNetwork::switch_topo_node(std::uint32_t id) const {
  return switch_nodes_.at(id);
}

double CurbNetwork::cs_delay_ms(std::uint32_t switch_id, std::uint32_t controller_id) const {
  const double km =
      topology_.distance_km(switch_nodes_.at(switch_id), controller_nodes_.at(controller_id));
  return options_.link_model.propagation_delay(km).as_millis_f();
}

double CurbNetwork::cc_delay_ms(std::uint32_t c1, std::uint32_t c2) const {
  const double km =
      topology_.distance_km(controller_nodes_.at(c1), controller_nodes_.at(c2));
  return options_.link_model.propagation_delay(km).as_millis_f();
}

opt::CapInstance CurbNetwork::build_cap_instance(
    const std::vector<std::uint32_t>& byzantine,
    const std::vector<std::optional<int>>& fixed_leaders) const {
  const std::size_t s = switch_nodes_.size();
  const std::size_t c = controller_nodes_.size();
  opt::CapInstance inst = opt::CapInstance::uniform(
      s, c, static_cast<int>(3 * options_.f + 1), options_.switch_load,
      options_.controller_capacity);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      inst.cs_delay[i][j] =
          cs_delay_ms(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
    }
  }
  for (std::size_t j = 0; j < c; ++j) {
    for (std::size_t j2 = 0; j2 < c; ++j2) {
      inst.cc_delay[j][j2] =
          cc_delay_ms(static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(j2));
    }
  }
  inst.max_cs_delay = options_.max_cs_delay_ms;
  inst.max_cc_delay = options_.max_cc_delay_ms;
  for (const std::uint32_t b : byzantine) {
    if (b < c) inst.byzantine[b] = true;
  }
  if (!fixed_leaders.empty()) {
    if (fixed_leaders.size() != s) {
      throw std::invalid_argument{"build_cap_instance: fixed_leaders size"};
    }
    inst.fixed_leader = fixed_leaders;
  }
  return inst;
}

opt::CapSolver& CurbNetwork::cap_solver() {
  if (cap_solver_ == nullptr) {
    opt::CapSolverOptions solver_options;
    solver_options.milp.max_wall_ms = options_.op_wall_limit_ms;
    // The protocol threads `previous` explicitly through every reassignment;
    // never substitute the cached assignment behind its back.
    solver_options.reuse_last_assignment = false;
    cap_solver_ = opt::make_cap_solver(options_.op_solver, solver_options);
  }
  return *cap_solver_;
}

void CurbNetwork::solve_op_async(const opt::CapInstance& instance,
                                 opt::CapObjective objective,
                                 const opt::Assignment* previous,
                                 std::function<void(opt::CapResult)> done) {
  // The solve runs inline (as Gurobi does on the paper's controllers); its
  // cost enters the virtual clock per the configured mode.
  opt::CapResult result = cap_solver().solve(instance, objective, previous);
  const sim::SimTime delay = options_.op_time_mode == OpTimeMode::kMeasured
                                 ? sim::SimTime::from_seconds_f(
                                       result.stats.wall_time_ms / 1000.0)
                                 : options_.op_fixed_time;
  obs::SpanId solve_span;
  if (observatory_ != nullptr) {
    observatory_->metrics.counter("core.op_solves").inc();
    observatory_->metrics.histogram("core.op_solve_us")
        .record(static_cast<double>(delay.as_micros()));
    // The span covers the virtual compute window [now, now + delay]; solves
    // from different controllers overlap, so each is a root on the op track.
    solve_span = observatory_->tracer.begin_under({}, "op_solve", "op");
  }
  sim_.schedule(delay, [this, solve_span, done = std::move(done),
                        result = std::move(result)] {
    if (observatory_ != nullptr) observatory_->tracer.end(solve_span);
    done(result);
  });
}

void CurbNetwork::snapshot_runtime_metrics() {
  if (observatory_ == nullptr) return;
  auto& registry = observatory_->metrics;
  registry.gauge("sim.events_executed")
      .set(static_cast<double>(sim_.events_executed()));
  registry.gauge("sim.queue_high_water")
      .set(static_cast<double>(sim_.queue_high_water()));
  registry.gauge("sim.now_us").set(static_cast<double>(sim_.now().as_micros()));

  // Backlog gauges. All virtual-time quantities — deterministic per seed, so
  // they are safe to feed into ts windows and SLO rules (e.g.
  // "max(sim.event_queue_depth) < 200000 over 5").
  registry.gauge("sim.event_queue_depth")
      .set(static_cast<double>(sim_.pending_events()));
  registry.gauge("sim.sched_lag_us", {{"q", "p50"}})
      .set(static_cast<double>(sim_.sched_lag_percentile_us(50.0)));
  registry.gauge("sim.sched_lag_us", {{"q", "p90"}})
      .set(static_cast<double>(sim_.sched_lag_percentile_us(90.0)));
  registry.gauge("sim.sched_lag_us", {{"q", "p99"}})
      .set(static_cast<double>(sim_.sched_lag_percentile_us(99.0)));
  registry.gauge("sim.sched_lag_us", {{"q", "max"}})
      .set(static_cast<double>(sim_.sched_lag_max_us()));

  const net::MessageStats& stats = bus_->stats();
  registry.gauge("net.in_flight_total")
      .set(static_cast<double>(stats.in_flight_total()));
  for (const auto& [category, entry] : stats.categories()) {
    registry.gauge("net.in_flight", {{"category", category}})
        .set(static_cast<double>(entry.in_flight_count));
    registry.gauge("net.in_flight_bytes", {{"category", category}})
        .set(static_cast<double>(entry.in_flight_bytes));
  }
  for (std::size_t node = 0; node < stats.pending_inbox_nodes(); ++node) {
    registry.gauge("net.inbox_pending", {{"node", std::to_string(node)}})
        .set(static_cast<double>(stats.pending_inbox(node)));
  }

  // Per-link utilization over the window since the previous snapshot,
  // against the serialization model (delta bytes · 8 / bandwidth / delta t).
  // Only the K hottest links of the window get labelled gauges, keeping the
  // series cardinality bounded on big topologies; links that drop out of the
  // top K are zeroed so stale values never freeze in the registry.
  if (link_stats_ != nullptr) {
    const double now_s = sim_.now().as_seconds_f();
    const double dt = now_s - link_prev_time_s_;
    if (dt > 0.0) {
      constexpr std::size_t kTopLinks = 8;
      const double bandwidth = options_.link_model.bandwidth_bps;
      std::vector<std::pair<double, std::string>> util;
      for (const auto& [key, link] : link_stats_->links()) {
        std::uint64_t& prev = link_prev_bytes_[key];
        const std::uint64_t delta = link.bytes - prev;
        prev = link.bytes;
        if (bandwidth <= 0.0) continue;
        util.emplace_back(static_cast<double>(delta) * 8.0 / bandwidth / dt,
                          topology_.node(net::NodeId{key.src}).name + "->" +
                              topology_.node(net::NodeId{key.dst}).name);
      }
      std::stable_sort(util.begin(), util.end(), [](const auto& a, const auto& b) {
        return a.first > b.first;
      });
      registry.gauge("net.links_active")
          .set(static_cast<double>(link_stats_->links().size()));
      registry.gauge("net.link_util_max").set(util.empty() ? 0.0 : util.front().first);
      std::set<std::string> published_now;
      for (std::size_t i = 0; i < util.size() && i < kTopLinks; ++i) {
        registry.gauge("net.link_util", {{"link", util[i].second}}).set(util[i].first);
        published_now.insert(util[i].second);
      }
      for (const std::string& label : published_links_) {
        if (published_now.count(label) == 0) {
          registry.gauge("net.link_util", {{"link", label}}).set(0.0);
        }
      }
      published_links_.insert(published_now.begin(), published_now.end());
      link_prev_time_s_ = now_s;
    }
  }

  // The block cache's lookups (validated_block): a hit is a FINAL-AGREE
  // copy (or, with signatures on, a Final-PBFT proposal) served without a
  // decode and a Merkle check.
  registry.gauge("core.block_cache_hits").set(static_cast<double>(block_cache_hits_));
  registry.gauge("core.block_cache_misses").set(static_cast<double>(block_cache_misses_));

  // Signature-cache effectiveness, exported only when this network actually
  // verifies signatures so default runs' telemetry is unchanged. Hits and
  // misses are deltas since this network's construction (the cache itself
  // is process-wide); entries is the process-wide current size. Host-order
  // independent for a single network per process, but two same-seed
  // networks in ONE process see different hit/miss splits (the second run
  // hits the first run's entries) — determinism comparisons must either
  // disable telemetry or key on per-run output, see DESIGN.md §15.
  if (options_.verify_signatures) {
    const crypto::SigCacheStats now = crypto::SigCache::instance().stats();
    registry.gauge("crypto.sigcache_hits")
        .set(static_cast<double>(now.hits - sigcache_baseline_.hits));
    registry.gauge("crypto.sigcache_misses")
        .set(static_cast<double>(now.misses - sigcache_baseline_.misses));
    registry.gauge("crypto.sigcache_entries").set(static_cast<double>(now.entries));
  }
}

std::shared_ptr<const chain::Block> CurbNetwork::validated_block(
    const crypto::Hash256& header_hash, std::span<const std::uint8_t> bytes) {
  for (const CachedBlock& entry : block_cache_) {
    if (entry.block != nullptr && entry.hash == header_hash &&
        std::equal(entry.bytes.begin(), entry.bytes.end(), bytes.begin(), bytes.end())) {
      ++block_cache_hits_;
      return entry.block;
    }
  }
  ++block_cache_misses_;
  std::shared_ptr<const chain::Block> block;
  try {
    block = std::make_shared<const chain::Block>(chain::Block::deserialize(bytes));
  } catch (const std::exception&) {
    return nullptr;  // malformed
  }
  if (!block->well_formed()) return nullptr;
  CachedBlock& slot = block_cache_[block_cache_next_];
  block_cache_next_ = (block_cache_next_ + 1) % kBlockCacheSize;
  slot.hash = header_hash;
  slot.bytes.assign(bytes.begin(), bytes.end());
  slot.block = block;
  return block;
}

std::vector<sdn::FlowEntry> CurbNetwork::compute_flow_entries(
    std::uint32_t switch_id, const sdn::Packet& packet) const {
  std::vector<sdn::FlowEntry> entries;
  sdn::FlowEntry entry;
  entry.match.dst_host = packet.dst_host;
  entry.priority = 10;
  if (packet.dst_host == switch_id) {
    entry.action = {sdn::FlowAction::Kind::kDeliver, 0};
  } else if (packet.dst_host < switch_nodes_.size()) {
    // Destination-based rule; out_port names the egress switch (the data
    // plane models the path as a delay-accurate logical tunnel).
    entry.action = {sdn::FlowAction::Kind::kForward, packet.dst_host};
  } else {
    entry.action = {sdn::FlowAction::Kind::kDrop, 0};
  }
  entries.push_back(entry);
  // The egress switch needs a deliver rule; include it so the same config
  // installed there (via its own PKT-IN) is consistent.
  return entries;
}

void CurbNetwork::initialize() {
  if (initialized_) throw std::logic_error{"CurbNetwork: already initialized"};

  // Controllers generate identities (pk broadcast is modelled as part of
  // genesis: every node knows the id -> pk directory).
  controllers_.reserve(controller_nodes_.size());
  for (std::uint32_t id = 0; id < controller_nodes_.size(); ++id) {
    auto key = crypto::KeyPair::from_seed("curb-controller-" + std::to_string(id) + "-" +
                                          std::to_string(options_.seed));
    controllers_.push_back(std::make_unique<Controller>(id, controller_nodes_[id],
                                                        std::move(key), *this));
  }
  switches_.reserve(switch_nodes_.size());
  for (std::uint32_t id = 0; id < switch_nodes_.size(); ++id) {
    switches_.push_back(std::make_unique<SwitchNode>(id, switch_nodes_[id], *this));
  }

  // OP(swList, ctrList, constraints): the initial assignment. Bounded by
  // the same wall budget as runtime reassignments (the greedy incumbent is
  // returned if branch-and-bound cannot prove optimality in time).
  const opt::CapInstance instance = build_cap_instance({});
  const opt::CapResult result =
      cap_solver().solve(instance, opt::CapObjective::kTrivial, nullptr);
  if (!result.feasible) {
    // Only a search that ran to its end proves infeasibility; one cut off by
    // its budget, or the heuristic, merely found nothing.
    if (result.stats.proven) {
      throw std::runtime_error{"CurbNetwork: initial controller assignment infeasible"};
    }
    const std::string how = result.stats.backend == "heuristic"
                                ? std::string{"by the heuristic solver"}
                                : "within op_wall_limit_ms after " +
                                      std::to_string(result.stats.milp_nodes) + " nodes";
    throw std::runtime_error{"CurbNetwork: no initial controller assignment found " + how +
                             "; not proven infeasible"};
  }
  genesis_state_ = AssignmentState::build(result.assignment, options_.f, /*epoch=*/0);

  // Genesis block records the initialization results (assignment + ids).
  chain::Transaction genesis_tx{chain::RequestType::kReassign, 0, 0, /*request_id=*/0,
                                genesis_state_.serialize()};
  genesis_block_ = std::make_shared<const chain::Block>(
      chain::Block::create(0, crypto::Hash256{}, {genesis_tx}, 0, 0));

  for (auto& controller : controllers_) {
    controller->initialize(genesis_state_, genesis_block_);
  }
  for (auto& sw : switches_) {
    sw->initialize(genesis_state_);
  }

  // Wire the bus.
  for (std::uint32_t id = 0; id < controllers_.size(); ++id) {
    Controller* c = controllers_[id].get();
    bus_->attach(controller_nodes_[id],
                 [c](net::NodeId from, const CurbMessage& msg) { c->on_message(from, msg); });
  }
  for (std::uint32_t id = 0; id < switches_.size(); ++id) {
    SwitchNode* s = switches_[id].get();
    bus_->attach(switch_nodes_[id],
                 [s](net::NodeId from, const CurbMessage& msg) { s->on_message(from, msg); });
  }
  if (fault_injector_ != nullptr) schedule_node_events();
  record_assignment_metrics(genesis_state_);
  if (ts_ != nullptr) ts_->start();
  initialized_ = true;
}

void CurbNetwork::finalize_telemetry() {
  if (ts_ != nullptr) ts_->finalize();
}

void CurbNetwork::record_assignment_metrics(const AssignmentState& state) {
  if (observatory_ == nullptr) return;
  auto& registry = observatory_->metrics;
  registry.gauge("core.epoch").set(static_cast<double>(state.epoch()));
  registry.gauge("core.groups").set(static_cast<double>(state.groups().size()));
  registry.gauge("core.byzantine_excluded")
      .set(static_cast<double>(state.byzantine().size()));
  for (std::size_t g = 0; g < state.groups().size(); ++g) {
    const auto label = std::to_string(g);
    registry.gauge("core.group_load", {{"group", label}})
        .set(static_cast<double>(state.groups()[g].switches.size()) *
             options_.switch_load);
    registry.gauge("core.group_size", {{"group", label}})
        .set(static_cast<double>(state.groups()[g].members.size()));
  }
  // Zero out gauges of groups dissolved by this reassignment so the series
  // does not freeze at its pre-reassignment value.
  for (std::size_t g = state.groups().size(); g < published_groups_; ++g) {
    const auto label = std::to_string(g);
    registry.gauge("core.group_load", {{"group", label}}).set(0.0);
    registry.gauge("core.group_size", {{"group", label}}).set(0.0);
  }
  published_groups_ = std::max(published_groups_, state.groups().size());
}

}  // namespace curb::core
