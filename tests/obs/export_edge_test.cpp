// Exporter edge cases: an empty metrics registry and an empty (or disabled)
// tracer must still emit valid, parseable documents — CI and scripts consume
// these files unconditionally. Validated with the curb::prof JSON parser.

#include <gtest/gtest.h>

#include <sstream>

#include "curb/obs/export.hpp"
#include "curb/obs/metrics.hpp"
#include "curb/obs/trace.hpp"
#include "curb/prof/bench_diff.hpp"
#include "curb/sim/simulator.hpp"

namespace obs = curb::obs;
namespace prof = curb::prof;

namespace {

TEST(ExportEdge, EmptyMetricsRegistryJson) {
  const obs::MetricsRegistry registry;
  std::ostringstream out;
  obs::write_metrics_json(registry, out);
  const prof::JsonValue doc = prof::parse_json(out.str());
  // Whatever the top-level shape, it must parse and carry no series.
  if (doc.type == prof::JsonValue::Type::kArray) {
    EXPECT_TRUE(doc.array.empty());
  } else {
    ASSERT_EQ(doc.type, prof::JsonValue::Type::kObject);
    for (const auto& [key, member] : doc.object) {
      if (member.type == prof::JsonValue::Type::kArray) {
        EXPECT_TRUE(member.array.empty()) << key;
      }
    }
  }
}

TEST(ExportEdge, EmptyMetricsRegistryCsv) {
  const obs::MetricsRegistry registry;
  std::ostringstream out;
  obs::write_metrics_csv(registry, out);
  // At most a header line; no data rows.
  std::istringstream lines{out.str()};
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_LE(rows, 1u);
}

TEST(ExportEdge, EmptyTracerChromeTrace) {
  const obs::Tracer tracer;  // never bound, never enabled
  std::ostringstream out;
  obs::write_chrome_trace(tracer, nullptr, out);
  const prof::JsonValue doc = prof::parse_json(out.str());
  ASSERT_EQ(doc.type, prof::JsonValue::Type::kObject);
  const prof::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata events ("M", process/thread names) are fine; no spans ("X").
  for (const auto& event : events->array) {
    const prof::JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_NE(ph->str, "X");
  }
}

TEST(ExportEdge, EmptyTracerSpansJsonlRoundTrip) {
  const obs::Tracer tracer;
  std::ostringstream out;
  obs::write_spans_jsonl(tracer, out);
  std::istringstream in{out.str()};
  EXPECT_TRUE(obs::parse_spans_jsonl(in).empty());
}

TEST(ExportEdge, DisabledTracerRecordsNothing) {
  curb::sim::Simulator sim;
  obs::Tracer tracer;
  tracer.bind_clock(sim);
  // Not enabled: spans are dropped at the entry point.
  const obs::SpanId id = tracer.begin("PKT_IN", "switch0");
  tracer.end(id);
  std::ostringstream out;
  obs::write_spans_jsonl(tracer, out);
  EXPECT_TRUE(out.str().empty());
}

TEST(ExportEdge, MetricsWithSeriesStillParse) {
  obs::MetricsRegistry registry;
  registry.counter("net.messages", {{"category", "AGREE"}}).inc();
  registry.histogram("net.delay_us").record(12.5);
  std::ostringstream out;
  obs::write_metrics_json(registry, out);
  EXPECT_NO_THROW(prof::parse_json(out.str()));
}

}  // namespace
