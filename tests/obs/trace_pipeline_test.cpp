// End-to-end trace pipeline: run the real simulation with tracing on, export
// spans-JSONL, parse it back, and drive curb-trace analysis over it — the
// same path the curb-trace CLI takes.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "curb/core/simulation.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/obs/report.hpp"
#include "curb/prof/bench_diff.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions traced_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.op_fixed_time = 20_ms;
  opts.observability = true;
  return opts;
}

CurbSimulation traced_sim(CurbOptions opts = traced_options()) {
  return CurbSimulation{net::random_geo_topology(8, 10, 99), opts};
}

TEST(TracePipeline, CleanRunHasZeroAnomalies) {
  CurbSimulation sim = traced_sim();
  for (int round = 0; round < 2; ++round) {
    const RoundMetrics m = sim.run_packet_in_round(2);
    ASSERT_EQ(m.issued, m.accepted);
  }
  const obs::TraceAnalysis analysis =
      obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
  EXPECT_GT(analysis.transactions().size(), 0u);
  EXPECT_EQ(analysis.complete_count(), analysis.transactions().size());
  for (const obs::Finding& f : analysis.findings()) {
    ADD_FAILURE() << "unexpected anomaly: " << f.detector << ": " << f.message;
  }
}

TEST(TracePipeline, PhaseSumsMatchEndToEndLatency) {
  CurbSimulation sim = traced_sim();
  (void)sim.run_packet_in_round(2);
  const obs::TraceAnalysis analysis =
      obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
  ASSERT_GT(analysis.complete_count(), 0u);
  for (const obs::TransactionTrace& txn : analysis.transactions()) {
    if (!txn.complete) continue;
    std::int64_t sum = 0;
    std::int64_t cursor = txn.start_us;
    for (const obs::Segment& seg : txn.segments) {
      EXPECT_EQ(seg.start_us, cursor);  // contiguous
      EXPECT_GE(seg.duration_us(), 0);
      cursor = seg.end_us;
      sum += seg.duration_us();
    }
    EXPECT_EQ(cursor, txn.end_us);
    EXPECT_EQ(sum, txn.latency_us());
    // The full chain should be reconstructable on the PBFT engine.
    EXPECT_NE(txn.agree_span, 0u);
    EXPECT_NE(txn.block_span, 0u);
    EXPECT_NE(txn.reply_span, 0u);
  }
  // Aggregate consistency: per-phase sums partition the e2e sum.
  std::int64_t phase_sum = 0;
  for (const auto& [phase, stats] : analysis.phase_stats()) phase_sum += stats.sum_us;
  EXPECT_EQ(phase_sum, analysis.e2e().sum_us);
}

TEST(TracePipeline, SameSeedRunsExportIdenticalSpans) {
  std::ostringstream a;
  std::ostringstream b;
  {
    CurbSimulation sim = traced_sim();
    (void)sim.run_packet_in_round(2);
    obs::write_spans_jsonl(sim.network().observatory()->tracer, a);
  }
  {
    CurbSimulation sim = traced_sim();
    (void)sim.run_packet_in_round(2);
    obs::write_spans_jsonl(sim.network().observatory()->tracer, b);
  }
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());  // byte-stable across same-seed runs
}

TEST(TracePipeline, JsonlRoundTripPreservesAnalysis) {
  CurbSimulation sim = traced_sim();
  (void)sim.run_packet_in_round(2);
  const obs::Tracer& tracer = sim.network().observatory()->tracer;

  std::ostringstream exported;
  obs::write_spans_jsonl(tracer, exported);
  std::istringstream in{exported.str()};
  const obs::TraceAnalysis parsed{obs::parse_spans_jsonl(in)};
  const obs::TraceAnalysis live = obs::TraceAnalysis::from_tracer(tracer);

  std::ostringstream report_parsed;
  std::ostringstream report_live;
  obs::write_report_json(parsed, report_parsed);
  obs::write_report_json(live, report_live);
  EXPECT_EQ(report_parsed.str(), report_live.str());
  EXPECT_EQ(parsed.spans().size(), live.spans().size());
}

TEST(TracePipeline, ReportJsonDeterministicAcrossRuns) {
  std::ostringstream a;
  std::ostringstream b;
  {
    CurbSimulation sim = traced_sim();
    (void)sim.run_packet_in_round(2);
    obs::write_report_json(
        obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer), a);
  }
  {
    CurbSimulation sim = traced_sim();
    (void)sim.run_packet_in_round(2);
    obs::write_report_json(
        obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer), b);
  }
  EXPECT_EQ(a.str(), b.str());
}

TEST(TracePipeline, SameSeedDiffShowsNoRegression) {
  CurbSimulation sim_a = traced_sim();
  CurbSimulation sim_b = traced_sim();
  (void)sim_a.run_packet_in_round(2);
  (void)sim_b.run_packet_in_round(2);
  const prof::PerfDiffResult diff = prof::perf_diff(
      {obs::bench_entry(
          obs::TraceAnalysis::from_tracer(sim_a.network().observatory()->tracer))},
      {obs::bench_entry(
          obs::TraceAnalysis::from_tracer(sim_b.network().observatory()->tracer))},
      obs::kTraceDiffOptions);
  EXPECT_EQ(diff.regressions(), 0u);
}

TEST(TracePipeline, SilentByzantineLeaderIsFlagged) {
  CurbSimulation sim = traced_sim();
  // Silence a group leader (the fig4-style stall): its group's slots cannot
  // make progress until timeouts fire and a view change installs the next
  // primary.
  const auto& groups = sim.network().genesis_state().groups();
  ASSERT_FALSE(groups.empty());
  sim.set_controller_behavior(groups.front().leader, bft::Behavior::kSilent);
  (void)sim.run_packet_in_round(2);
  const obs::TraceAnalysis analysis =
      obs::TraceAnalysis::from_tracer(sim.network().observatory()->tracer);
  ASSERT_FALSE(analysis.findings().empty());
  bool stall_flagged = false;
  for (const obs::Finding& f : analysis.findings()) {
    if (f.detector == "consensus_timeout" || f.detector == "view_change" ||
        f.detector == "stalled_round" || f.detector == "unserved_request") {
      stall_flagged = true;
    }
  }
  EXPECT_TRUE(stall_flagged);
}

}  // namespace
}  // namespace curb::core
