#include "curb/core/simulation.hpp"

#include <algorithm>

namespace curb::core {

using namespace curb::sim::literals;

CurbSimulation::CurbSimulation(CurbOptions options)
    : CurbSimulation{net::internet2(), options} {}

CurbSimulation::CurbSimulation(net::Topology topology, CurbOptions options)
    : CurbSimulation{std::move(topology), options, DeferInit{}} {
  initialize();
}

CurbSimulation::CurbSimulation(net::Topology topology, CurbOptions options, DeferInit)
    : network_{std::make_unique<CurbNetwork>(std::move(topology), options)} {}

void CurbSimulation::initialize() {
  network_->initialize();
  active_switches_ = network_->num_switches();
}

void CurbSimulation::set_active_switches(std::size_t n) {
  active_switches_ = std::min(n, network_->num_switches());
}

void CurbSimulation::set_controller_behavior(std::uint32_t controller_id,
                                             bft::Behavior behavior) {
  network_->controller(controller_id).set_behavior(behavior);
}

void CurbSimulation::set_controller_lazy_range(std::uint32_t controller_id, sim::SimTime lo,
                                               sim::SimTime hi) {
  network_->controller(controller_id).set_lazy_range(lo, hi);
}

RoundMetrics CurbSimulation::run_packet_in_round(std::size_t requests_per_switch) {
  ++round_counter_;
  const RoundStart round_start = begin_round();

  for (std::uint32_t sw = 0; sw < active_switches_; ++sw) {
    SwitchNode& node = network_->switch_node(sw);
    node.reset_flow_table();
    node.clear_records();
    for (std::size_t r = 0; r < requests_per_switch; ++r) {
      // Destinations rotate per round/request so configs always differ.
      auto dst = static_cast<std::uint32_t>((sw + round_counter_ + r * 7 + 1) %
                                            network_->num_switches());
      if (dst == sw) dst = (dst + 1) % network_->num_switches();
      node.host_send(dst);
    }
  }
  return finish_round(round_start, "pkt_in");
}

RoundMetrics CurbSimulation::run_reassignment_round(std::size_t requesters) {
  ++round_counter_;
  const RoundStart round_start = begin_round();

  const std::size_t n = std::min(requesters, active_switches_);
  for (std::uint32_t sw = 0; sw < n; ++sw) {
    SwitchNode& node = network_->switch_node(sw);
    node.clear_records();
    // Forced empty-accusation probes: the leaders run the full RE-ASS
    // pipeline (OP solve, consensus, blockchain commit, ctrList replies)
    // without actually degrading the network, so rounds are repeatable —
    // exactly the handling cost Fig. 9 measures. Requires
    // options.reass_always_solve.
    node.request_reassignment({}, /*force=*/true);
  }
  return finish_round(round_start, "reass");
}

CurbSimulation::RoundStart CurbSimulation::begin_round() const {
  RoundStart start;
  start.at = network_->simulator().now();
  start.messages_before = network_->bus().stats().total_messages();
  if (network_->observatory() != nullptr) {
    start.categories_before = network_->bus().stats().snapshot();
    const Controller& c0 = network_->controller(0);
    if (c0.has_blockchain()) start.height_before = c0.blockchain().height();
  }
  if (const obs::net::LinkStats* links = network_->link_stats()) {
    for (const auto& [category, totals] : links->categories()) {
      start.category_dups_before[category] = totals.dups;
    }
  }
  return start;
}

RoundMetrics CurbSimulation::finish_round(const RoundStart& start, const char* kind) {
  const sim::SimTime round_start = start.at;
  const std::uint64_t messages_before = start.messages_before;
  // Let the round settle: all requests accept or time out. The deadline is
  // generous; the event queue usually drains long before it.
  const sim::SimTime deadline =
      round_start + network_->options().request_timeout * 4 + 2_s;
  network_->simulator().run_until(deadline);

  RoundMetrics metrics;
  sim::SimTime last_accept = round_start;
  double latency_sum = 0.0;
  obs::Observatory* obsy = network_->observatory();
  obs::Histogram* latency_hist = nullptr;
  obs::Counter* timeout_counter = nullptr;
  if (obsy != nullptr) {
    latency_hist = &obsy->metrics.histogram("core.request_latency_us");
    timeout_counter = &obsy->metrics.counter("core.request_timeouts");
  }
  for (std::uint32_t sw = 0; sw < network_->num_switches(); ++sw) {
    for (const auto& record : network_->switch_node(sw).records()) {
      if (record.sent < round_start) continue;
      ++metrics.issued;
      if (record.accepted) {
        ++metrics.accepted;
        const double latency_ms = (*record.accepted - record.sent).as_millis_f();
        latency_sum += latency_ms;
        metrics.max_latency_ms = std::max(metrics.max_latency_ms, latency_ms);
        last_accept = std::max(last_accept, *record.accepted);
        if (latency_hist != nullptr) {
          latency_hist->record(
              static_cast<double>((*record.accepted - record.sent).as_micros()));
        }
      } else if (timeout_counter != nullptr) {
        timeout_counter->inc();
      }
    }
  }
  if (obsy != nullptr) {
    obsy->metrics.counter("core.rounds").inc();
    network_->snapshot_runtime_metrics();
  }
  if (metrics.accepted > 0) {
    metrics.mean_latency_ms = latency_sum / static_cast<double>(metrics.accepted);
    const double duration_s = (last_accept - round_start).as_seconds_f();
    metrics.round_duration_ms = duration_s * 1000.0;
    if (duration_s > 0) {
      metrics.throughput_tps = static_cast<double>(metrics.accepted) / duration_s;
    }
  }
  metrics.messages = network_->bus().stats().total_messages() - messages_before;
  if (obsy != nullptr) emit_round_complexity(start, kind, metrics);
  return metrics;
}

void CurbSimulation::emit_round_complexity(const RoundStart& start, const char* kind,
                                           const RoundMetrics& metrics) {
  obs::Observatory* obsy = network_->observatory();
  if (obsy == nullptr) return;
  const net::MessageStats& stats = network_->bus().stats();
  const obs::net::LinkStats* links = network_->link_stats();

  // Wire counts this round: accounted sends per category plus any
  // fault-injected duplicate deliveries (which MessageStats never records —
  // exactly the traffic the Theorem 1 auditor must see).
  std::uint64_t total = 0;
  std::uint64_t dup_total = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
  attrs.reserve(stats.categories().size() + 10);
  const std::uint64_t round_blocks = [&] {
    const Controller& c0 = network_->controller(0);
    if (!c0.has_blockchain()) return std::uint64_t{0};
    const std::uint64_t height = c0.blockchain().height();
    return height > start.height_before ? height - start.height_before : 0;
  }();
  attrs.emplace_back("round", std::to_string(round_counter_));
  attrs.emplace_back("kind", kind);
  attrs.emplace_back("engine",
                     std::string{bft::to_string(network_->options().consensus_engine)});
  const std::uint64_t committee = 3 * network_->options().f + 1;
  // The CAP assignment may serve a switch with more than 3f+1 controllers
  // when placement constraints demand it; the request-scaled phases of the
  // analytic bound are parameterized on the largest serving-group size.
  std::uint64_t gmax = committee;
  for (const auto& group : network_->controller(0).state().groups()) {
    gmax = std::max<std::uint64_t>(gmax, group.members.size());
  }
  attrs.emplace_back("c", std::to_string(committee));
  attrs.emplace_back("gmax", std::to_string(gmax));
  attrs.emplace_back("k",
                     std::to_string(network_->controller(0).state().groups().size()));
  attrs.emplace_back("n", std::to_string(network_->num_controllers()));
  attrs.emplace_back("requests", std::to_string(metrics.issued));
  attrs.emplace_back("blocks", std::to_string(round_blocks));
  for (const auto& [category, entry] : stats.categories()) {
    std::uint64_t wire = entry.count;
    const auto before = start.categories_before.find(category);
    if (before != start.categories_before.end()) wire -= before->second.first;
    if (links != nullptr) {
      // Per-category dup deltas need the category's cumulative dup count at
      // round start; LinkStats only keeps cumulative totals, so attribute
      // the round's dup delta to its category via the category totals map.
      const std::uint64_t dups_now = links->category_dups(category);
      const auto dup_before = start.category_dups_before.find(category);
      const std::uint64_t dups =
          dups_now - (dup_before != start.category_dups_before.end()
                          ? dup_before->second
                          : 0);
      wire += dups;
      dup_total += dups;
    }
    if (wire == 0) continue;
    total += wire;
    attrs.emplace_back("m:" + category, std::to_string(wire));
  }
  attrs.emplace_back("total", std::to_string(total));
  attrs.emplace_back("dup", std::to_string(dup_total));
  obsy->tracer.instant("round_complexity", "net", attrs);
}

std::vector<RoundMetrics> CurbSimulation::run_packet_in_rounds(std::size_t n) {
  std::vector<RoundMetrics> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(run_packet_in_round());
  return out;
}

std::uint64_t CurbSimulation::total_messages() const {
  return network_->bus().stats().total_messages();
}

namespace {

// The chains of the controllers that are up. A crashed controller has no
// chain until it recovers, so every chain query skips it.
std::vector<const chain::Blockchain*> live_chains(const CurbNetwork& network) {
  std::vector<const chain::Blockchain*> chains;
  for (std::uint32_t c = 0; c < network.num_controllers(); ++c) {
    const Controller& ctrl = network.controller(c);
    if (!ctrl.crashed() && ctrl.has_blockchain()) chains.push_back(&ctrl.blockchain());
  }
  return chains;
}

}  // namespace

bool CurbSimulation::chains_consistent() const {
  const auto chains = live_chains(*network_);
  return std::all_of(chains.begin(), chains.end(), [&](const chain::Blockchain* chain) {
    return chain->same_view_as(*chains.front());
  });
}

bool CurbSimulation::chains_prefix_consistent() const {
  const auto chains = live_chains(*network_);
  return std::all_of(chains.begin(), chains.end(), [&](const chain::Blockchain* chain) {
    const chain::Blockchain& reference = *chains.front();
    const std::uint64_t common = std::min(reference.height(), chain->height());
    return chain->at(common).hash() == reference.at(common).hash();
  });
}

std::uint64_t CurbSimulation::chain_height() const {
  const auto chains = live_chains(*network_);
  return chains.empty() ? 0 : chains.front()->height();
}

}  // namespace curb::core
