// Tests for the curb-prof regression gate: the BENCH_results.json
// flattening, and perf_diff threshold semantics.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "curb/prof/bench_diff.hpp"
#include "curb/prof/json.hpp"

namespace prof = curb::prof;

namespace {

std::vector<prof::BenchEntry> entries_from(const std::string& text) {
  std::istringstream in{text};
  return prof::parse_bench_json(in);
}

const std::string kBaseline = R"([
{"bench":"fig5_pktin","params":{"sweep":"switches","switches":"4","f":"1"},
 "metrics":{"latency_ms":244.5,"tps_parallel":55.0,"messages":1200.0},
 "e2e_us":{"count":20,"p50_us":244000.0,"p99_us":251000.0},
 "phases":[{"phase":"dispatch","mean_us":12000.0,"share_pct":5.0},
           {"phase":"consensus","mean_us":180000.0,"share_pct":74.0}],
 "host":{"wall_ms":150.0,"events_per_sec":90000.0,
         "components":[{"component":"crypto","share_pct":40.0}]}}
])";

TEST(BenchEntries, FlattensMetricsPhasesAndHost) {
  const auto entries = entries_from(kBaseline);
  ASSERT_EQ(entries.size(), 1u);
  const prof::BenchEntry& e = entries[0];
  EXPECT_EQ(e.bench, "fig5_pktin");
  EXPECT_EQ(e.key(), "fig5_pktin sweep=switches switches=4 f=1");
  EXPECT_DOUBLE_EQ(e.values.at("metrics.latency_ms"), 244.5);
  EXPECT_DOUBLE_EQ(e.values.at("e2e_us.p99_us"), 251000.0);
  EXPECT_DOUBLE_EQ(e.values.at("phases.consensus.share_pct"), 74.0);
  EXPECT_DOUBLE_EQ(e.values.at("host.wall_ms"), 150.0);
  EXPECT_DOUBLE_EQ(e.values.at("host.components.crypto.share_pct"), 40.0);
}

TEST(BenchEntries, RejectsNonArrayAndNamelessEntries) {
  EXPECT_THROW(entries_from(R"({"bench":"x"})"), std::runtime_error);
  EXPECT_THROW(entries_from(R"([{"params":{}}])"), std::runtime_error);
}

TEST(HigherIsBetter, ClassifiesMetricNames) {
  EXPECT_TRUE(prof::higher_is_better("metrics.tps_parallel"));
  EXPECT_TRUE(prof::higher_is_better("metrics.throughput"));
  EXPECT_TRUE(prof::higher_is_better("host.events_per_sec"));
  EXPECT_FALSE(prof::higher_is_better("metrics.latency_ms"));
  EXPECT_FALSE(prof::higher_is_better("e2e_us.p99_us"));
}

TEST(PerfDiff, SelfDiffIsClean) {
  const auto base = entries_from(kBaseline);
  const prof::PerfDiffResult diff = prof::perf_diff(base, base);
  EXPECT_EQ(diff.entries_compared, 1u);
  EXPECT_GT(diff.metrics_compared, 0u);
  EXPECT_TRUE(diff.deltas.empty());
  EXPECT_EQ(diff.regressions(), 0u);
  EXPECT_TRUE(diff.only_base.empty());
  EXPECT_TRUE(diff.only_candidate.empty());
}

std::vector<prof::BenchEntry> with_value(const std::string& metric, double value) {
  auto entries = entries_from(kBaseline);
  entries[0].values[metric] = value;
  return entries;
}

TEST(PerfDiff, LatencyIncreaseRegresses) {
  const auto base = entries_from(kBaseline);
  const auto cand = with_value("metrics.latency_ms", 244.5 * 1.25);  // +25%
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].metric, "metrics.latency_ms");
  EXPECT_EQ(diff.deltas[0].status, prof::MetricDelta::Status::kRegressed);
  EXPECT_NEAR(diff.deltas[0].delta_pct, 25.0, 0.01);
  EXPECT_EQ(diff.regressions(), 1u);
}

TEST(PerfDiff, ThroughputDropRegressesAndRiseImproves) {
  const auto base = entries_from(kBaseline);
  const auto drop = with_value("metrics.tps_parallel", 55.0 * 0.7);
  EXPECT_EQ(prof::perf_diff(base, drop).regressions(), 1u);
  const auto rise = with_value("metrics.tps_parallel", 55.0 * 1.5);
  const prof::PerfDiffResult improved = prof::perf_diff(base, rise);
  EXPECT_EQ(improved.regressions(), 0u);
  EXPECT_EQ(improved.improvements(), 1u);
}

TEST(PerfDiff, LatencyDecreaseImproves) {
  const auto base = entries_from(kBaseline);
  const auto cand = with_value("metrics.latency_ms", 244.5 * 0.5);
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  EXPECT_EQ(diff.regressions(), 0u);
  EXPECT_EQ(diff.improvements(), 1u);
}

TEST(PerfDiff, HostMetricsOnlyWarn) {
  const auto base = entries_from(kBaseline);
  // wall_ms doubles: way past the default 50% host threshold, but host
  // metrics measure the machine, not the protocol — never a hard failure.
  const auto cand = with_value("host.wall_ms", 300.0);
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].status, prof::MetricDelta::Status::kWarned);
  EXPECT_EQ(diff.regressions(), 0u);
  EXPECT_EQ(diff.warnings(), 1u);
}

TEST(PerfDiff, HostThresholdIsLooser) {
  const auto base = entries_from(kBaseline);
  // +30% host wall time: over the 10% virtual threshold but under the 50%
  // host threshold — not reported at all.
  const auto cand = with_value("host.wall_ms", 195.0);
  EXPECT_TRUE(prof::perf_diff(base, cand).deltas.empty());
}

TEST(PerfDiff, WarnOnlyDowngradesRegressions) {
  const auto base = entries_from(kBaseline);
  const auto cand = with_value("metrics.latency_ms", 400.0);
  prof::PerfDiffOptions options;
  options.warn_only = true;
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand, options);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].status, prof::MetricDelta::Status::kWarned);
  EXPECT_EQ(diff.regressions(), 0u);
}

TEST(PerfDiff, ThresholdAndFloorSuppressSmallDeltas) {
  const auto base = entries_from(kBaseline);
  // +5% latency: inside the default 10% band.
  EXPECT_TRUE(prof::perf_diff(base, with_value("metrics.latency_ms", 256.7)).deltas.empty());
  // Large relative change on a tiny value, suppressed by the absolute floor.
  auto zero_base = entries_from(kBaseline);
  zero_base[0].values["metrics.anomalies"] = 0.001;
  auto zero_cand = zero_base;
  zero_cand[0].values["metrics.anomalies"] = 0.003;
  prof::PerfDiffOptions options;
  options.floor = 0.01;
  EXPECT_TRUE(prof::perf_diff(zero_base, zero_cand, options).deltas.empty());
}

TEST(PerfDiff, ZeroBaseUsesAbsoluteDelta) {
  auto base = entries_from(kBaseline);
  base[0].values["metrics.anomalies"] = 0.0;
  auto cand = base;
  cand[0].values["metrics.anomalies"] = 0.5;  // 0 -> 0.5: +50% vs denominator 1
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_NEAR(diff.deltas[0].delta_pct, 50.0, 0.01);
  EXPECT_EQ(diff.deltas[0].status, prof::MetricDelta::Status::kRegressed);
}

TEST(PerfDiff, ReportsUnmatchedEntries) {
  const auto base = entries_from(kBaseline);
  auto cand = entries_from(kBaseline);
  cand[0].params[1].second = "34";  // different switches value -> different key
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  EXPECT_EQ(diff.entries_compared, 0u);
  ASSERT_EQ(diff.only_base.size(), 1u);
  ASSERT_EQ(diff.only_candidate.size(), 1u);
}

TEST(PerfDiff, OneSidedMetricIsListedNotRegressed) {
  auto base = entries_from(kBaseline);
  auto cand = base;
  base[0].values["metrics.retired"] = 1.0;
  cand[0].values["metrics.added"] = 1e9;
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  EXPECT_EQ(diff.entries_compared, 1u);
  EXPECT_EQ(diff.metrics_compared, base[0].values.size() - 1);
  EXPECT_TRUE(diff.deltas.empty());
  EXPECT_EQ(diff.regressions(), 0u);
  const std::string key = base[0].key();
  EXPECT_EQ(diff.only_base, std::vector<std::string>{key + "  metrics.retired"});
  EXPECT_EQ(diff.only_candidate, std::vector<std::string>{key + "  metrics.added"});

  std::ostringstream text;
  prof::write_perf_diff_text(diff, text);
  EXPECT_NE(text.str().find("note: only in candidate: " + key + "  metrics.added"),
            std::string::npos)
      << text.str();
}

TEST(PerfDiff, JsonOutputParsesBack) {
  // A param with a control character: entry names must come out escaped.
  auto base = entries_from(kBaseline);
  base[0].params.emplace_back("note", "a\nb");
  auto cand = base;
  cand[0].values["metrics.latency_ms"] = 400.0;
  const prof::PerfDiffResult diff = prof::perf_diff(base, cand);
  std::ostringstream out;
  prof::write_perf_diff_json(diff, out);
  const prof::JsonValue doc = prof::parse_json(out.str());
  EXPECT_DOUBLE_EQ(doc.find("regressions")->number, 1.0);
  ASSERT_EQ(doc.find("deltas")->array.size(), 1u);
  EXPECT_EQ(doc.find("deltas")->array[0].find("metric")->str, "metrics.latency_ms");
  EXPECT_EQ(doc.find("deltas")->array[0].find("entry")->str, base[0].key());

  std::ostringstream text;
  prof::write_perf_diff_text(diff, text);
  EXPECT_NE(text.str().find("REGRESSED"), std::string::npos);
}

}  // namespace
