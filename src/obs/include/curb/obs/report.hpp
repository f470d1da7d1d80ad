#pragma once

// Renderers over TraceAnalysis: the phase-breakdown report, per-transaction
// critical paths, the anomaly list, and the entry a two-run diff compares.
//
// Every JSON writer is deterministic — fixed key order, fixed float
// formatting — so reports of byte-identical span dumps are byte-identical,
// and two same-seed runs diff clean.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/analysis.hpp"
#include "curb/prof/bench_diff.hpp"

namespace curb::obs {

/// One LatencyStats as a JSON object (shared by the report writers and the
/// bench results file).
void write_latency_stats_json(const LatencyStats& stats, std::ostream& out);

/// Per-phase breakdown as a JSON array ([{"phase":..,"share_pct":..,
/// "stats":{..}}, ...]), shares relative to the end-to-end sum.
void write_phase_breakdown_json(const TraceAnalysis& analysis, std::ostream& out);

/// Human-readable summary: transaction counts, end-to-end latency, the
/// per-phase breakdown table (abs + % of end-to-end), per-group latency,
/// and the anomaly tally.
void write_report_text(const TraceAnalysis& analysis, std::ostream& out);

/// Machine-readable equivalent of write_report_text.
void write_report_json(const TraceAnalysis& analysis, std::ostream& out);

/// Per-transaction critical paths, slowest first. `limit` caps the number of
/// transactions shown (0 = all).
void write_critical_path_text(const TraceAnalysis& analysis, std::ostream& out,
                              std::size_t limit = 5);
void write_critical_path_json(const TraceAnalysis& analysis, std::ostream& out,
                              std::size_t limit = 0);

/// Protocol-conformance findings.
void write_anomalies_text(const TraceAnalysis& analysis, std::ostream& out);
void write_anomalies_json(const TraceAnalysis& analysis, std::ostream& out);

/// What `curb-trace diff` compares, as one prof::perf_diff entry named
/// "trace": the end-to-end and per-phase p50 latency in us, under the BENCH
/// names `e2e_us.p50_us` and `phases.<phase>.stats.p50_us`. A latency with no
/// complete transaction is left out, so perf_diff lists it as one-sided.
[[nodiscard]] prof::BenchEntry bench_entry(const TraceAnalysis& analysis);

/// `curb-trace diff`'s default gate: a p50 regresses when it grows by more
/// than 10% and more than 100 us (the floor suppresses noise on
/// sub-millisecond phases).
inline constexpr prof::PerfDiffOptions kTraceDiffOptions{.threshold_pct = 10.0,
                                                         .floor = 100.0};

}  // namespace curb::obs
