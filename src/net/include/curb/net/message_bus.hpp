#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/prof/profiler.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::net {

/// What a fault hook did to one message. Payload corruption is expressed as
/// a closure rather than in-place mutation: the bus shares one immutable
/// buffer across all scheduled deliveries and applies `corrupt` through its
/// copy-on-write path only when a fault actually fires.
template <typename Payload>
struct BusFaultAction {
  bool drop = false;
  sim::SimTime extra_delay = sim::SimTime::zero();
  /// Extra deliveries of the same payload, offset from the original
  /// delivery time (message duplication).
  std::vector<sim::SimTime> duplicates;
  /// When set, applied once to a private copy of the payload before any
  /// delivery (original or duplicate) is scheduled.
  std::function<void(Payload&)> corrupt;
};

/// Per-category message accounting. Theorem 1 in the paper bounds the
/// *number* of messages per round; the bus counts every send so benches can
/// measure the bound directly instead of arguing about it. On top of the
/// cumulative counters the stats track the *backlog*: messages scheduled but
/// not yet delivered, per category (count + bytes) and per destination node
/// (pending-inbox depth) — the virtual-time analogue of socket queue depth.
class MessageStats {
 public:
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t in_flight_count = 0;
    std::uint64_t in_flight_bytes = 0;
  };

  void record(const std::string& category, std::size_t bytes) {
    auto& entry = by_category_[category];
    ++entry.count;
    entry.bytes += bytes;
    ++total_count_;
    total_bytes_ += bytes;
  }

  /// Register one scheduled delivery headed for node `to`. The returned
  /// Entry* stays valid for the life of the stats object (map nodes are
  /// stable), so the delivery callback can balance with end_flight without
  /// a map lookup.
  Entry* begin_flight(const std::string& category, std::size_t bytes,
                      std::size_t to) {
    auto& entry = by_category_[category];
    ++entry.in_flight_count;
    entry.in_flight_bytes += bytes;
    if (pending_inbox_.size() <= to) pending_inbox_.resize(to + 1, 0);
    ++pending_inbox_[to];
    ++in_flight_total_;
    return &entry;
  }

  /// Balance a begin_flight at delivery time.
  void end_flight(Entry* entry, std::size_t bytes, std::size_t to) {
    --entry->in_flight_count;
    entry->in_flight_bytes -= bytes;
    --pending_inbox_[to];
    --in_flight_total_;
  }

  [[nodiscard]] std::uint64_t total_messages() const { return total_count_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t messages(const std::string& category) const {
    const auto it = by_category_.find(category);
    return it == by_category_.end() ? 0 : it->second.count;
  }
  [[nodiscard]] std::uint64_t bytes(const std::string& category) const {
    const auto it = by_category_.find(category);
    return it == by_category_.end() ? 0 : it->second.bytes;
  }
  [[nodiscard]] std::uint64_t in_flight_messages(const std::string& category) const {
    const auto it = by_category_.find(category);
    return it == by_category_.end() ? 0 : it->second.in_flight_count;
  }
  [[nodiscard]] std::uint64_t in_flight_bytes(const std::string& category) const {
    const auto it = by_category_.find(category);
    return it == by_category_.end() ? 0 : it->second.in_flight_bytes;
  }
  /// Scheduled-but-undelivered messages across all categories.
  [[nodiscard]] std::uint64_t in_flight_total() const { return in_flight_total_; }
  /// Scheduled-but-undelivered messages headed for one node.
  [[nodiscard]] std::uint64_t pending_inbox(std::size_t node) const {
    return node < pending_inbox_.size() ? pending_inbox_[node] : 0;
  }
  [[nodiscard]] std::size_t pending_inbox_nodes() const {
    return pending_inbox_.size();
  }
  [[nodiscard]] std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
  snapshot() const {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [k, v] : by_category_) out[k] = {v.count, v.bytes};
    return out;
  }
  [[nodiscard]] const std::map<std::string, Entry>& categories() const {
    return by_category_;
  }
 private:
  std::map<std::string, Entry> by_category_;
  std::vector<std::uint64_t> pending_inbox_;  // by destination node index
  std::uint64_t total_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t in_flight_total_ = 0;
};

/// Simulated transport connecting topology nodes, replacing the paper's
/// gRPC layer. Delivery delay = LinkModel delay over the shortest-path
/// distance between the endpoints. Payloads are caller-defined; the bus is
/// agnostic and only needs a byte size for the transmission-delay term.
///
/// Hooks:
///  - a fault hook (curb::fault) may drop, delay, duplicate or corrupt each
///    routed message; it models silent-byzantine links and the "lazy" nodes
///    of the paper's experiment 3,
///  - a send observer sees every accounted send (link telemetry).
template <typename Payload>
class MessageBus {
 public:
  using Handler = std::function<void(NodeId from, const Payload&)>;
  /// One accounted send as the link-telemetry layer sees it. The observer
  /// fires exactly once per send_shared call — i.e. once per multicast
  /// destination — mirroring MessageStats::record, so per-link message
  /// counts sum exactly to the bus totals (conservation invariant).
  /// `duplicates` counts extra fault-injected wire deliveries of this
  /// message (MessageStats never re-records those); `dropped` marks sends
  /// that were accounted but never scheduled (partition or fault drop).
  struct SendRecord {
    NodeId from;
    NodeId to;
    std::size_t bytes = 0;
    std::size_t duplicates = 0;
    bool dropped = false;
  };
  using SendObserver =
      std::function<void(const SendRecord&, const Payload&, const std::string& category)>;
  /// Fault-injection hook (curb::fault): decides drop / extra delay /
  /// duplication and may request payload corruption via the returned
  /// closure. Runs on every message that has a route to its destination.
  using FaultHook = std::function<BusFaultAction<Payload>(
      NodeId from, NodeId to, const Payload& payload, const std::string& category)>;

  MessageBus(sim::Simulator& sim, const Topology& topo, LinkModel model = {})
      : sim_{sim}, topo_{topo}, model_{model}, handlers_(topo.node_count()) {}

  /// Register the receive handler of a node (one per node). The handler
  /// table tracks the topology, which may gain nodes after construction.
  void attach(NodeId node, Handler handler) {
    if (node.value >= topo_.node_count()) throw std::out_of_range{"MessageBus: bad node"};
    if (handlers_.size() < topo_.node_count()) handlers_.resize(topo_.node_count());
    handlers_[node.value] = std::move(handler);
  }

  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Attach the per-send observer (nullptr disables). Pure accounting only:
  /// the observer must not send, schedule, or otherwise perturb the
  /// simulation, so same-seed runs stay byte-identical with it installed.
  void set_send_observer(SendObserver observer) { send_observer_ = std::move(observer); }

  /// Attach observability (nullptr disables). Per-category delivery-delay
  /// histograms, message/byte counters, and drop counters land in the
  /// registry; instrument handles are cached so the hot path resolves each
  /// category's series once.
  void set_observatory(obs::Observatory* observatory) {
    obs_ = observatory;
    instruments_.clear();
  }

  /// Send a payload; `category` feeds message accounting, `bytes` the
  /// transmission-delay term. Self-sends are delivered with only the
  /// overhead delay (no propagation). The payload is moved into one shared
  /// immutable buffer; the scheduled delivery (and any fault-injected
  /// duplicates) hold refcounted handles, never copies.
  void send(NodeId from, NodeId to, Payload payload, std::size_t bytes,
            const std::string& category) {
    send_shared(from, to, std::make_shared<const Payload>(std::move(payload)), bytes,
                category);
  }

  /// Broadcast to a recipient list (skipping `from` itself). The payload is
  /// buffered once and shared across every destination's delivery.
  void multicast(NodeId from, const std::vector<NodeId>& to, Payload payload,
                 std::size_t bytes, const std::string& category) {
    const auto shared = std::make_shared<const Payload>(std::move(payload));
    for (const NodeId dest : to) {
      if (dest == from) continue;
      send_shared(from, dest, shared, bytes, category);
    }
  }

  [[nodiscard]] const MessageStats& stats() const { return stats_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const LinkModel& link_model() const { return model_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  struct CategoryInstruments {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* dropped_partition = nullptr;
    obs::Counter* dropped_fault = nullptr;
    obs::Histogram* delay_us = nullptr;
  };

  void send_shared(NodeId from, NodeId to, std::shared_ptr<const Payload> payload,
                   std::size_t bytes, const std::string& category) {
    const prof::Scope scope{"bus.send"};
    stats_.record(category, bytes);
    sim::SimTime delay = model_.per_message_overhead + model_.transmission_delay(bytes);
    if (from != to) {
      const double km = topo_.distance_km(from, to);
      if (km == Topology::kUnreachable) {
        if (obs_ != nullptr) instruments(category).dropped_partition->inc();
        observe(from, to, bytes, 0, true, *payload, category);
        return;  // partitioned: message lost
      }
      delay += model_.propagation_delay(km);
    }
    std::size_t duplicates = 0;
    if (fault_hook_) {
      BusFaultAction<Payload> action = fault_hook_(from, to, *payload, category);
      if (action.drop) {
        if (obs_ != nullptr) instruments(category).dropped_fault->inc();
        observe(from, to, bytes, 0, true, *payload, category);
        return;  // dropped by fault injection
      }
      delay += action.extra_delay;
      // Copy-on-write: corruption rebinds this handle to a mutated clone,
      // so a multicast's other destinations keep the pristine bytes.
      if (action.corrupt) {
        auto clone = std::make_shared<Payload>(*payload);
        action.corrupt(*clone);
        payload = std::move(clone);
      }
      duplicates = action.duplicates.size();
      for (const sim::SimTime offset : action.duplicates) {
        MessageStats::Entry* flight = stats_.begin_flight(category, bytes, to.value);
        sim_.schedule(delay + offset, [this, from, to, payload, flight, bytes] {
          stats_.end_flight(flight, bytes, to.value);
          deliver(from, to, *payload);
        });
      }
    }
    observe(from, to, bytes, duplicates, false, *payload, category);
    if (obs_ != nullptr) {
      const CategoryInstruments& series = instruments(category);
      series.messages->inc();
      series.bytes->inc(bytes);
      series.delay_us->record(static_cast<double>(delay.as_micros()));
    }
    MessageStats::Entry* flight = stats_.begin_flight(category, bytes, to.value);
    sim_.schedule(delay, [this, from, to, payload = std::move(payload), flight, bytes] {
      stats_.end_flight(flight, bytes, to.value);
      deliver(from, to, *payload);
    });
  }

  void observe(NodeId from, NodeId to, std::size_t bytes, std::size_t duplicates,
               bool dropped, const Payload& payload, const std::string& category) {
    if (!send_observer_) return;
    send_observer_(SendRecord{from, to, bytes, duplicates, dropped}, payload, category);
  }

  void deliver(NodeId from, NodeId to, const Payload& payload) {
    const prof::Scope scope{"bus.deliver"};
    if (to.value >= handlers_.size()) return;  // no handler ever attached
    if (auto& handler = handlers_[to.value]) handler(from, payload);
  }

  const CategoryInstruments& instruments(const std::string& category) {
    const auto it = instruments_.find(category);
    if (it != instruments_.end()) return it->second;
    obs::MetricsRegistry& registry = obs_->metrics;
    CategoryInstruments series;
    series.messages = &registry.counter("net.messages", {{"category", category}});
    series.bytes = &registry.counter("net.bytes", {{"category", category}});
    series.dropped_partition = &registry.counter(
        "net.dropped", {{"category", category}, {"reason", "partition"}});
    series.dropped_fault = &registry.counter(
        "net.dropped", {{"category", category}, {"reason", "fault"}});
    series.delay_us = &registry.histogram("net.delay_us", {{"category", category}});
    return instruments_.emplace(category, series).first->second;
  }

  sim::Simulator& sim_;
  const Topology& topo_;
  LinkModel model_;
  std::vector<Handler> handlers_;
  FaultHook fault_hook_;
  SendObserver send_observer_;
  MessageStats stats_;
  obs::Observatory* obs_ = nullptr;
  std::map<std::string, CategoryInstruments> instruments_;
};

}  // namespace curb::net
