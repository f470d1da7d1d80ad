#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "curb/core/assignment_state.hpp"
#include "curb/core/controller.hpp"
#include "curb/core/messages.hpp"
#include "curb/core/options.hpp"
#include "curb/core/switch_node.hpp"
#include "curb/crypto/sigcache.hpp"
#include "curb/fault/injector.hpp"
#include "curb/net/message_bus.hpp"
#include "curb/net/topology.hpp"
#include "curb/obs/net/complexity.hpp"
#include "curb/obs/net/link_stats.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/obs/slo.hpp"
#include "curb/obs/timeseries.hpp"
#include "curb/opt/cap.hpp"
#include "curb/opt/solver.hpp"
#include "curb/sdn/flow.hpp"
#include "curb/sim/simulator.hpp"

namespace curb::core {

/// A complete Curb deployment: topology, message bus, controllers with
/// blockchain replicas, switch sites, and the Step-0 initialization
/// (key generation, OP() assignment, finalCom election, genesis block).
class CurbNetwork {
 public:
  CurbNetwork(net::Topology topology, CurbOptions options);

  /// Step 0. Throws std::runtime_error when the CAP instance is infeasible
  /// (e.g. D_c,s too tight for the topology).
  void initialize();
  [[nodiscard]] bool initialized() const { return initialized_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::MessageBus<CurbMessage>& bus() { return *bus_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const CurbOptions& options() const { return options_; }

  /// Observability handle; nullptr unless options.observability is set.
  [[nodiscard]] obs::Observatory* observatory() { return observatory_.get(); }

  /// Windowed telemetry collector; nullptr unless options.ts_window > 0 (or
  /// options.ts_out or options.slo_rules non-empty). Ticks from initialize()
  /// on.
  [[nodiscard]] obs::TsCollector* ts() { return ts_.get(); }
  /// SLO watchdog; nullptr unless options.slo_rules is non-empty.
  [[nodiscard]] obs::SloEngine* slo() { return slo_.get(); }
  /// Close the trailing partial telemetry window, run the final SLO pass,
  /// and flush/close the JSONL stream. Idempotent; destruction also
  /// flushes, so aborted runs never leave a truncated telemetry file.
  void finalize_telemetry();

  /// Per-link telemetry; nullptr unless options.link_telemetry (implied by
  /// observability). Counts every accounted bus send per (src,dst) pair —
  /// per-link msgs sum exactly to bus().stats().total_messages().
  [[nodiscard]] obs::net::LinkStats* link_stats() { return link_stats_.get(); }
  [[nodiscard]] const obs::net::LinkStats* link_stats() const {
    return link_stats_.get();
  }
  /// Message-complexity ledger; nullptr unless options.msg_ledger. Wire
  /// counts (accounted sends + fault duplicates) per (category, join key).
  [[nodiscard]] obs::net::MsgLedger* msg_ledger() { return ledger_.get(); }
  /// Topology-name lookup for the link exports (matrix/CSV/DOT).
  [[nodiscard]] obs::net::NodeNameFn link_node_names() const;

  /// Fault injector; nullptr unless options.fault_spec is non-empty.
  [[nodiscard]] fault::FaultInjector* fault_injector() { return fault_injector_.get(); }
  /// Copy the simulator's built-in counters (events executed, queue
  /// high-water) into the registry. Call before exporting metrics — the sim
  /// layer sits below obs and cannot push them itself.
  void snapshot_runtime_metrics();
  /// Refresh the per-group load/size gauges (and epoch/group counts) from
  /// an adopted assignment. Called at genesis and on every epoch adoption;
  /// idempotent, so any controller adopting the same epoch may call it.
  void record_assignment_metrics(const AssignmentState& state);

  [[nodiscard]] std::size_t num_controllers() const { return controllers_.size(); }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] Controller& controller(std::uint32_t id) { return *controllers_[id]; }
  [[nodiscard]] const Controller& controller(std::uint32_t id) const {
    return *controllers_[id];
  }
  [[nodiscard]] SwitchNode& switch_node(std::uint32_t id) { return *switches_[id]; }
  [[nodiscard]] const SwitchNode& switch_node(std::uint32_t id) const {
    return *switches_[id];
  }
  [[nodiscard]] net::NodeId controller_topo_node(std::uint32_t id) const;
  [[nodiscard]] net::NodeId switch_topo_node(std::uint32_t id) const;

  /// The assignment agreed at Step 0 (genesis).
  [[nodiscard]] const AssignmentState& genesis_state() const { return genesis_state_; }
  [[nodiscard]] const chain::Block& genesis_block() const { return *genesis_block_; }

  /// The block serialized as `bytes`, decoded and Merkle-checked once per
  /// network for all its controllers; nullptr if it does not decode or its
  /// Merkle root does not match its transactions. `header_hash` is the hash
  /// of the header `bytes` starts with. A copy is served from the cache only
  /// if every byte equals the cached copy's, so a corrupted copy that keeps
  /// the header is decoded and checked on its own. Signatures are not
  /// checked here.
  [[nodiscard]] std::shared_ptr<const chain::Block> validated_block(
      const crypto::Hash256& header_hash, std::span<const std::uint8_t> bytes);

  /// One-way propagation delays (ms) over the topology's shortest paths.
  [[nodiscard]] double cs_delay_ms(std::uint32_t switch_id, std::uint32_t controller_id) const;
  [[nodiscard]] double cc_delay_ms(std::uint32_t c1, std::uint32_t c2) const;

  /// CAP instance for the current topology and options with the given
  /// byzantine exclusions and (optional) per-switch fixed leaders.
  [[nodiscard]] opt::CapInstance build_cap_instance(
      const std::vector<std::uint32_t>& byzantine,
      const std::vector<std::optional<int>>& fixed_leaders = {}) const;

  /// Solve OP() and deliver the result after the configured virtual compute
  /// delay (measured wall time or fixed, per options.op_time_mode).
  void solve_op_async(const opt::CapInstance& instance, opt::CapObjective objective,
                      const opt::Assignment* previous,
                      std::function<void(opt::CapResult)> done);

  /// Destination-based flow entries answering a PKT-IN from `switch_id`.
  /// Deterministic: every honest controller computes the same entries.
  [[nodiscard]] std::vector<sdn::FlowEntry> compute_flow_entries(
      std::uint32_t switch_id, const sdn::Packet& packet) const;

 private:
  net::Topology topology_;
  CurbOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<net::MessageBus<CurbMessage>> bus_;

  std::vector<net::NodeId> controller_nodes_;
  std::vector<net::NodeId> switch_nodes_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::vector<std::unique_ptr<SwitchNode>> switches_;

  void install_fault_hook();
  void schedule_node_events();
  void record_fault(const fault::LinkFaultDecision& decision, const std::string& category);
  /// Live controller with the tallest chain (lowest id breaks ties);
  /// nullptr when every controller is down.
  [[nodiscard]] Controller* pick_recovery_donor() const;
  /// Long-lived OP() solver for options_.op_solver, created on first use.
  [[nodiscard]] opt::CapSolver& cap_solver();

  AssignmentState genesis_state_;
  std::shared_ptr<const chain::Block> genesis_block_;
  /// validated_block's cache: the last kBlockCacheSize distinct copies that
  /// passed, the oldest overwritten first. A block is looked up only while
  /// its FINAL-AGREE copies are in flight, and the final leader seals one
  /// block at a time, so a few entries serve every controller.
  struct CachedBlock {
    crypto::Hash256 hash{};
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<const chain::Block> block;
  };
  static constexpr std::size_t kBlockCacheSize = 8;
  std::array<CachedBlock, kBlockCacheSize> block_cache_;
  std::size_t block_cache_next_ = 0;
  std::uint64_t block_cache_hits_ = 0;
  std::uint64_t block_cache_misses_ = 0;
  bool initialized_ = false;
  std::unique_ptr<obs::Observatory> observatory_;
  // slo_ before ts_: the collector's destructor closes the trailing window,
  // which runs the SLO window callback — the engine must still be alive.
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::TsCollector> ts_;
  /// Highest group count ever published to the load gauges; lets adoption
  /// zero the gauges of groups dissolved by a reassignment.
  std::size_t published_groups_ = 0;
  std::unique_ptr<obs::net::LinkStats> link_stats_;
  std::unique_ptr<obs::net::MsgLedger> ledger_;
  /// Interval state for the net.link_util gauges: byte counts and virtual
  /// time at the previous snapshot, so each sample publishes the utilization
  /// of the window since the last snapshot (not a lifetime average).
  std::map<obs::net::LinkKey, std::uint64_t> link_prev_bytes_;
  double link_prev_time_s_ = 0.0;
  /// Link labels ever published to the top-K utilization gauges; lets a
  /// snapshot zero links that dropped out of the top K.
  std::set<std::string> published_links_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<opt::CapSolver> cap_solver_;
  /// Process-wide SigCache counters at construction; runtime gauges export
  /// this network's delta (verify_signatures runs only).
  crypto::SigCacheStats sigcache_baseline_;
};

}  // namespace curb::core
