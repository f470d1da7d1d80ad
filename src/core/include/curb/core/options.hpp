#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "curb/bft/consensus.hpp"
#include "curb/net/link_model.hpp"
#include "curb/opt/cap.hpp"
#include "curb/opt/solver.hpp"
#include "curb/sim/time.hpp"

namespace curb::core {

/// How the OP() solve time enters the simulation clock.
enum class OpTimeMode : std::uint8_t {
  /// Measure the real wall time of solve_cap and inject it as virtual
  /// compute delay — mirrors the paper, where Gurobi runs inline on the
  /// controller host.
  kMeasured,
  /// Inject a fixed delay (deterministic runs for tests).
  kFixed,
};

/// All knobs of a Curb deployment. Defaults reproduce the paper's
/// evaluation setup: Internet2 topology, f = 1 (group size 4), 500 ms
/// request timeout, lazy window (200, 500) ms tolerated for 5 rounds.
struct CurbOptions {
  /// Fault tolerance per controller group: group size = 3f + 1.
  std::size_t f = 1;

  /// Reply timeout at the s-agent (paper: 500 ms).
  sim::SimTime request_timeout = sim::SimTime::millis(500);
  /// Response-time threshold above which a round counts as lazy (paper:
  /// lazy nodes respond in (200, 500) ms).
  sim::SimTime lazy_threshold = sim::SimTime::millis(200);
  /// Lazy rounds tolerated before treating the node as byzantine (paper: 5).
  std::size_t max_lazy_rounds = 5;
  /// Consecutive timed-out rounds before a silent controller is reported
  /// (paper Fig. 4(a) detects the silent node several rounds after it
  /// stops responding; 1 = report on first miss).
  std::size_t max_silent_rounds = 1;

  /// PBFT view-change timeout for both consensus layers.
  sim::SimTime pbft_timeout = sim::SimTime::millis(500);
  /// BFT engine for Intra- and Final-consensus. The paper uses PBFT and
  /// notes Tendermint/HotStuff work too; kHotstuff swaps in the
  /// leader-aggregated linear-communication engine.
  bft::ConsensusEngine consensus_engine = bft::ConsensusEngine::kPbft;

  /// Leaders aggregate RE-ASS accusations arriving within this window into
  /// a single OP() solve (paper experiment 2: three byzantine nodes removed
  /// "by calculating OP once").
  sim::SimTime reass_aggregation_delay = sim::SimTime::millis(30);

  /// Parallel mode (paper Fig. 4(c)): all intra-group and final consensus
  /// instances proceed concurrently. In non-parallel mode a group leader
  /// proposes its next txList only once every transaction of its previous
  /// one is on the chain, so a group's intra-group and final consensus
  /// never overlap; different groups still run side by side.
  bool parallel = true;

  /// Physical link model (paper: 2*10^8 m/s, 100 Mbps).
  net::LinkModel link_model{};

  /// Assignment solver objective used for reassignment.
  opt::CapObjective reassign_objective = opt::CapObjective::kTrivial;
  /// CAP solver backend for every OP() solve (initial assignment and
  /// reassignments). kDense is the exact, byte-stable default; kHeuristic
  /// trades optimality proofs for millisecond solves at 1000 switches x 100
  /// controllers, and misses the default Internet2 instance (capacity 12).
  /// curb-sim maps --solver onto this.
  opt::CapSolverBackend op_solver = opt::CapSolverBackend::kDense;
  /// D_c,s threshold in milliseconds (kNoLimit disables [C1.3]).
  double max_cs_delay_ms = opt::CapInstance::kNoLimit;
  /// D_c,c threshold in milliseconds (kNoLimit disables [C1.4], the paper's
  /// default in all experiments since the quadratic constraint is costly).
  double max_cc_delay_ms = opt::CapInstance::kNoLimit;
  /// Q_i: per-switch load units and C_j: per-controller capacity.
  double switch_load = 1.0;
  double controller_capacity = 1e9;

  OpTimeMode op_time_mode = OpTimeMode::kFixed;
  sim::SimTime op_fixed_time = sim::SimTime::millis(20);
  /// Wall-clock budget for each OP() branch-and-bound (0 = unlimited). When
  /// hit, the solver returns its incumbent (usually the greedy/repair warm
  /// start) — a leader must answer within the switches' timeout regardless.
  double op_wall_limit_ms = 1000.0;

  /// Always run the OP() solver for RE-ASS requests, even when the accused
  /// set adds nothing new. Benchmarks use this to measure the full
  /// reassignment pipeline repeatedly without degrading the network.
  bool reass_always_solve = false;

  /// Verify request/transaction signatures (real ECDSA). Costs real CPU
  /// time in big sweeps; protocol behaviour is identical either way.
  bool verify_signatures = false;

  /// Observability: when true the network owns an obs::Observatory — the
  /// protocol records spans per round (pkt_in -> intra_pbft -> agree ->
  /// final_pbft -> block_commit -> reply_quorum) and every layer feeds the
  /// metrics registry. Off by default: the disabled path is a null-pointer
  /// check on each hot path.
  bool observability = false;

  /// Per-link telemetry (curb::obs::net::LinkStats): every accounted bus
  /// send also increments per-(src,dst) counters, exportable as a link
  /// matrix / DOT heatmap and surfaced as net.link_util gauges. Implied by
  /// `observability`; set directly to collect link counters without the
  /// full observatory. Pure counting — same-seed runs stay byte-identical.
  bool link_telemetry = false;

  /// Message-complexity ledger (curb::obs::net::MsgLedger): attribute every
  /// accounted send to its transaction join key (payload-digest hex for
  /// consensus traffic, "switch:request" for PKT-IN/REPLY). Off by default —
  /// keying consensus traffic hashes each AGREE/FINAL-AGREE payload once.
  bool msg_ledger = false;

  /// Windowed time-series telemetry (curb::obs::ts): zero disables the
  /// collector; a nonzero width makes the network sample the metrics
  /// registry every `ts_window` of virtual time into per-window deltas
  /// (implies observability). Window closes are pure-read simulator events,
  /// so same-seed runs stay byte-identical with telemetry on.
  sim::SimTime ts_window = sim::SimTime::zero();
  /// Closed windows retained in memory; older ones are evicted after the
  /// streaming flush, so memory is O(retention), not run length.
  std::size_t ts_retention = 64;
  /// Stream closed windows to this JSONL path (curb-watch tails it live).
  /// Empty keeps windows in memory only; non-empty implies ts_window
  /// (defaulted to 100 ms when unset).
  std::string ts_out;
  /// SLO watchdog rules (curb::obs::slo grammar), evaluated at every window
  /// close. Empty disables; non-empty implies ts_window (defaulted to
  /// 100 ms when unset).
  std::string slo_rules;

  /// RNG seed for the whole deployment.
  std::uint64_t seed = 42;

  /// Fault-injection plan (curb::fault spec grammar, e.g.
  /// "drop(p=0.05,cat=REPLY);crash(node=ctrl1,at=500,down=2000)"). Empty
  /// disables injection entirely; the bus hook is then never installed.
  std::string fault_spec;
  /// Seed for the fault plan's own RNG stream, independent of `seed` so the
  /// same workload can be replayed under different fault schedules.
  std::uint64_t fault_seed = 1;

  bool operator==(const CurbOptions&) const = default;
};

}  // namespace curb::core
