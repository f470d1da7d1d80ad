#pragma once

// Theorem 1 message-complexity model and auditor (curb::obs::net).
//
// The paper bounds Curb's control-plane traffic per round by
// O(kc² + c² + 2cN) = O(N) (Theorem 1): k groups each run one intra-group
// PBFT instance (c² messages), the final committee runs one more (c²), and
// the committee disseminates the block to all N controllers (cN) while the
// serving groups reply to their switches (cN in the worst case). This module
// turns that asymptotic statement into an exact per-round analytic bound for
// this implementation's message flow (clean run):
//
//   PKT-IN      R·g            the switch asks every member of its group
//   intra-pbft  R·2g(g−1)      pre-prepare (g−1) + prepare (g−1)² + commit
//                              g(g−1) per txList decision
//   AGREE       R·g·c          every group member multicasts the committed
//                              txList to the c-member final committee
//   final-pbft  B·2c(c−1)      same PBFT shape per sealed block
//   FINAL-AGREE B·c(N−1)       every committee member multicasts the block
//                              to all N controllers
//   REPLY       R·g            every serving-group member answers the switch
//
// with R requests and B committed blocks. Theorem 1 assumes uniform groups
// of exactly c = 3f+1 members, but the CAP assignment is free to serve a
// switch with a *larger* group when placement constraints demand it — the
// Internet2 fixture yields groups of 4..7 members — so the request-scaled
// phases are parameterized on g = the largest serving-group size in the
// current assignment (gmax; g = c when unknown). Each individual decision
// at group size gᵢ ≤ g costs exactly 2gᵢ(gᵢ−1) ≤ 2g(g−1), so the bound
// stays sound while remaining O(N): g is capped by the capacity constraint,
// independent of N. HotStuff decisions cost 7(g−1) ≤ 2g(g−1) messages
// (proposal + three linear vote phases + three QC broadcasts), so the
// PBFT-shaped bound covers both engines. A txList that carries several
// buffered requests (non-parallel mode defers a group's flush) only lowers
// the decision count, so the bound stays an upper bound.
//
// The auditor side consumes `round_complexity` instant spans (emitted by
// CurbSimulation per round, attrs documented in DESIGN.md §16), recomputes
// the bound from (c, gmax, k, N, R, B), and flags rounds where any phase's
// measured wire count — bus accounting plus fault-injected duplicates —
// exceeds its phase bound, or the control-plane total exceeds the summed
// bound. The per-phase check matters: a duplicate-sender bug that doubles
// AGREE traffic trips the AGREE bound even while slack in the intra-PBFT
// bound keeps the total legal. This catches quorum-stacking regressions
// quantitatively instead of via protocol-state assertions.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "curb/obs/trace.hpp"

namespace curb::obs::net {

/// Deployment shape a bound is computed from.
struct ComplexityParams {
  std::uint64_t c = 4;         ///< committee / minimum group size (3f+1)
  std::uint64_t gmax = 0;      ///< largest serving-group size (0 ⇒ use c)
  std::uint64_t k = 1;         ///< number of controller groups
  std::uint64_t n = 4;         ///< total controllers N
  std::uint64_t requests = 0;  ///< requests issued this round (R)
  std::uint64_t blocks = 0;    ///< blocks committed this round (B)
  std::string engine = "pbft";

  /// Effective group-size bound g used by the request-scaled phases.
  [[nodiscard]] std::uint64_t group_bound() const {
    return gmax != 0 ? gmax : c;
  }
};

/// Exact per-phase analytic upper bound for one clean round.
struct PhasePrediction {
  std::uint64_t pkt_in = 0;
  std::uint64_t intra_pbft = 0;
  std::uint64_t agree = 0;
  std::uint64_t final_pbft = 0;
  std::uint64_t final_agree = 0;
  std::uint64_t reply = 0;
  std::uint64_t total = 0;
};

/// The per-round analytic bound (see the header comment for the formula).
[[nodiscard]] PhasePrediction analytic_bound(const ComplexityParams& params);

/// Theorem 1's asymptotic per-round message count kc² + c² + 2cN — the
/// quantity the paper's O(N) claim is stated over (for reports/docs).
[[nodiscard]] std::uint64_t theorem1_messages(std::uint64_t c, std::uint64_t k,
                                              std::uint64_t n);

/// One audited round, reconstructed from a `round_complexity` instant span.
struct RoundComplexity {
  std::uint64_t span_id = 0;
  std::int64_t at_us = 0;
  std::uint64_t round = 0;
  std::string kind;  ///< "pkt_in" | "reass"
  ComplexityParams params;
  /// Measured wire messages per bus category (accounted sends + duplicate
  /// wire copies for that category).
  std::map<std::string, std::uint64_t> measured;
  std::uint64_t measured_total = 0;
  /// Control-plane subset of measured_total: the six bounded phase
  /// categories, excluding data-plane (DATA) and reassignment traffic.
  std::uint64_t control_total = 0;
  /// Fault-injected duplicate wire copies included in measured_total.
  std::uint64_t dup_wire = 0;
  /// Measured wire counts regrouped into the analytic phases.
  PhasePrediction phase_measured;
  /// Recomputed analytic bound for params (not trusted from the span).
  PhasePrediction bound;
  /// Bound checks apply to pkt_in rounds only: reassignment rounds run the
  /// OP() pipeline with GROUP-UPDATE fan-out the theorem does not model.
  bool bounded = false;
  /// True when any phase (or the control-plane total) exceeds its bound.
  bool exceeds = false;

  [[nodiscard]] double ratio() const {
    return bound.total == 0 ? 0.0
                            : static_cast<double>(control_total) /
                                  static_cast<double>(bound.total);
  }
};

/// Extract and audit every `round_complexity` instant in a span dump,
/// in span order. Spans with unparsable attrs are skipped.
[[nodiscard]] std::vector<RoundComplexity> extract_round_complexity(
    const std::vector<SpanRecord>& spans);

/// Message-complexity ledger: attributes accounted sends per (category,
/// join-key). Keys follow the traced-event contract so `curb-trace
/// complexity --ledger` can join rows back to transactions: consensus
/// traffic is keyed by the 8-byte payload-digest hex that also appears on
/// intra_pbft/final_pbft/agree/block_commit spans; PKT-IN and REPLY rows by
/// the "switch:request" pair the `txns` attr uses.
class MsgLedger {
 public:
  struct Entry {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  void record(const std::string& category, const std::string& key,
              std::uint64_t msgs, std::uint64_t bytes);

  /// (category, key) -> counts, deterministically ordered.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>, Entry>&
  entries() const {
    return entries_;
  }
  [[nodiscard]] std::uint64_t total_msgs() const { return total_msgs_; }

 private:
  std::map<std::pair<std::string, std::string>, Entry> entries_;
  std::uint64_t total_msgs_ = 0;
};

}  // namespace curb::obs::net
