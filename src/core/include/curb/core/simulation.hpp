#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "curb/bft/replica.hpp"
#include "curb/core/network.hpp"
#include "curb/core/options.hpp"
#include "curb/net/topology.hpp"
#include "curb/sim/stats.hpp"

namespace curb::core {

/// Outcome of one protocol round (paper Steps 1-4).
struct RoundMetrics {
  std::size_t issued = 0;
  std::size_t accepted = 0;
  /// Mean request latency (send -> f+1 matching REPLYs), milliseconds.
  double mean_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Accepted requests per second of virtual round time.
  double throughput_tps = 0.0;
  double round_duration_ms = 0.0;
  std::uint64_t messages = 0;  // control-plane messages this round
};

/// Workload driver over a CurbNetwork: issues per-round PKT-IN (and RE-ASS)
/// requests, advances virtual time, and measures latency / throughput /
/// message counts — the quantities behind every figure in the paper.
class CurbSimulation {
 public:
  /// Tag selecting the deferred-initialization constructor.
  struct DeferInit {};

  /// Uses the paper's Internet2 topology by default.
  explicit CurbSimulation(CurbOptions options);
  CurbSimulation(net::Topology topology, CurbOptions options);
  /// Construct the network but skip Step 0: callers that want to survive an
  /// infeasible-assignment failure (and still flush metrics/telemetry from
  /// the constructed network) call initialize() themselves.
  CurbSimulation(net::Topology topology, CurbOptions options, DeferInit);

  /// Run Step 0 (throws std::runtime_error on an infeasible CAP instance).
  /// Only needed after the DeferInit constructor.
  void initialize();
  [[nodiscard]] bool initialized() const { return network_->initialized(); }

  [[nodiscard]] CurbNetwork& network() { return *network_; }
  [[nodiscard]] const CurbNetwork& network() const { return *network_; }

  /// Restrict workload to the first `n` switches (paper Fig. 5 sweeps the
  /// switch count over [4, 34] on the fixed Internet2 topology).
  void set_active_switches(std::size_t n);
  [[nodiscard]] std::size_t active_switches() const { return active_switches_; }

  /// Inject byzantine behaviour into a controller.
  void set_controller_behavior(std::uint32_t controller_id, bft::Behavior behavior);
  void set_controller_lazy_range(std::uint32_t controller_id, sim::SimTime lo,
                                 sim::SimTime hi);

  /// One PKT-IN round: every active switch sends `requests_per_switch`
  /// table-miss packets to distinct destinations; the round ends when all
  /// requests settle (accept or timeout). Flow tables are cleared first so
  /// every packet is a miss.
  RoundMetrics run_packet_in_round(std::size_t requests_per_switch = 1);

  /// One RE-ASS round: `requesters` switches each request reassignment of a
  /// (fake, already-removed or healthy) controller — used by Fig. 9 to
  /// measure reassignment handling performance.
  RoundMetrics run_reassignment_round(std::size_t requesters);

  /// Convenience: run `n` PKT-IN rounds, returning per-round metrics.
  std::vector<RoundMetrics> run_packet_in_rounds(std::size_t n);

  [[nodiscard]] std::uint64_t total_messages() const;
  /// True when every live controller's chain tip matches the first live
  /// controller's. Crashed controllers (no chain until recovery) are skipped.
  [[nodiscard]] bool chains_consistent() const;
  /// Safety-only variant for faulted/degraded runs: live chains may lag
  /// (messages still in flight when the run stops) but must never fork —
  /// every pair of chains agrees on the block at their common height.
  /// Crashed controllers (no chain until recovery) are skipped.
  [[nodiscard]] bool chains_prefix_consistent() const;
  /// Height of the first live controller's chain; 0 if none is live.
  [[nodiscard]] std::uint64_t chain_height() const;

 private:
  /// Bus/chain state captured before a round issues its requests, so
  /// finish_round can compute per-round deltas (messages, per-category wire
  /// counts, committed blocks) for metrics and the round_complexity instant.
  struct RoundStart {
    sim::SimTime at;
    std::uint64_t messages_before = 0;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> categories_before;
    /// Cumulative fault-duplicate wire counts per category at round start
    /// (from LinkStats), so dup deltas land in the right category attr.
    std::map<std::string, std::uint64_t> category_dups_before;
    std::uint64_t height_before = 0;
  };
  [[nodiscard]] RoundStart begin_round() const;
  RoundMetrics finish_round(const RoundStart& start, const char* kind);
  /// Emit the per-round `round_complexity` instant (track "net") the
  /// Theorem 1 auditor consumes; attr contract in DESIGN.md §16.
  void emit_round_complexity(const RoundStart& start, const char* kind,
                             const RoundMetrics& metrics);

  std::unique_ptr<CurbNetwork> network_;
  std::size_t active_switches_ = 0;
  std::uint64_t round_counter_ = 0;
};

}  // namespace curb::core
