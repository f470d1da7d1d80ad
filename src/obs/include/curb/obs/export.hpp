#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/metrics.hpp"
#include "curb/obs/trace.hpp"

namespace curb::obs {

/// One span object per line: {"id":..,"parent":..,"name":"..","track":"..",
/// "start_us":..,"end_us":..,"open":..,"attrs":{..}}. Machine-diffable and
/// trivially streamable into the benchmark trajectory tooling.
void write_spans_jsonl(const Tracer& tracer, std::ostream& out);

/// Parse a JSONL span dump back (round-trip of write_spans_jsonl). Throws
/// std::runtime_error on malformed input. Only the subset of JSON that the
/// writer emits is accepted.
[[nodiscard]] std::vector<SpanRecord> parse_spans_jsonl(std::istream& in);

/// Chrome trace_event JSON ("X" complete events + thread-name metadata),
/// loadable in chrome://tracing and Perfetto. One tid per tracer track,
/// timestamps in virtual microseconds. Spans still open at export time are
/// clamped to the latest timestamp seen and tagged args.open = "true". One
/// "C" (counter) event per counter/gauge series of `registry` (may be null)
/// at the trace-end timestamp renders final values as counter tracks.
void write_chrome_trace(const Tracer& tracer, const MetricsRegistry* registry,
                        std::ostream& out);

/// Full registry snapshot: counters/gauges with values, histograms with
/// count/sum/min/max/mean, interpolated p50/p90/p99, and non-empty buckets.
void write_metrics_json(const MetricsRegistry& registry, std::ostream& out);

/// Flat CSV (series,kind,count,sum,min,max,mean,p50,p90,p99,value) for
/// spreadsheet-style diffing of bench runs.
void write_metrics_csv(const MetricsRegistry& registry, std::ostream& out);

/// JSON string escaping (shared by the writers; exposed for tests).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Shortest round-trippable JSON number formatting (shared by the writers:
/// integers print without an exponent or trailing zeros, so exports stay
/// byte-stable and diffable).
[[nodiscard]] std::string json_double(double v);

}  // namespace curb::obs
