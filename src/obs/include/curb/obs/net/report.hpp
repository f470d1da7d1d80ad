#pragma once

// Renderers for the topology-aware telemetry layer: link matrix (JSON/CSV),
// Graphviz DOT heatmap, Theorem 1 complexity audit (text/JSON for
// `curb-trace complexity`), and the message-ledger JSONL round-trip.
// All output is deterministically ordered (map iteration / span order) so
// same-seed runs export byte-identical files.

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/net/complexity.hpp"
#include "curb/obs/net/link_stats.hpp"

namespace curb::obs::net {

/// Topology-node label lookup for link exports (index -> display name).
using NodeNameFn = std::function<std::string(std::uint32_t)>;

/// Serialization-model parameters the exports annotate utilization with.
struct LinkReportOptions {
  double bandwidth_bps = 100.0e6;  ///< the paper's 100 Mbps link model
  /// Virtual seconds the counters cover; > 0 enables utilization columns
  /// (bytes · 8 / bandwidth / elapsed).
  double elapsed_s = 0.0;
};

void write_link_matrix_json(const LinkStats& stats, const NodeNameFn& name,
                            const LinkReportOptions& options, std::ostream& out);
void write_link_matrix_csv(const LinkStats& stats, const NodeNameFn& name,
                           const LinkReportOptions& options, std::ostream& out);
/// Graphviz heatmap: one directed edge per link, pen width and color scaled
/// by the link's share of the hottest link's bytes.
void write_link_dot(const LinkStats& stats, const NodeNameFn& name,
                    const LinkReportOptions& options, std::ostream& out);

/// `curb-trace complexity` renderers over audited rounds.
void write_complexity_text(const std::vector<RoundComplexity>& rounds,
                           std::ostream& out);
void write_complexity_json(const std::vector<RoundComplexity>& rounds,
                           std::ostream& out);

/// Ledger JSONL: one {"category","key","msgs","bytes"} object per line,
/// deterministically ordered.
void write_ledger_jsonl(const MsgLedger& ledger, std::ostream& out);

/// One parsed ledger row (`parse_ledger_jsonl` round-trips write_ledger_jsonl,
/// each line through prof::parse_json; a malformed line, an unknown or missing
/// member, or a msgs/bytes that is not a whole number in range throws
/// std::runtime_error).
struct LedgerRow {
  std::string category;
  std::string key;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] std::vector<LedgerRow> parse_ledger_jsonl(std::istream& in);

}  // namespace curb::obs::net
