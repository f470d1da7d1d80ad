#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "curb/obs/analysis.hpp"
#include "curb/obs/report.hpp"
#include "curb/prof/bench_diff.hpp"

namespace curb::obs {
namespace {

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::string name,
                std::string track, std::int64_t start_us, std::int64_t end_us,
                bool open = false, Attrs attrs = {}) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = std::move(name);
  s.track = std::move(track);
  s.start = sim::SimTime::micros(start_us);
  s.end = sim::SimTime::micros(end_us);
  s.open = open;
  s.attrs = std::move(attrs);
  return s;
}

/// One complete, well-formed transaction through every protocol stage.
std::vector<SpanRecord> clean_chain() {
  return {
      span(1, 0, "pkt_in", "sw-3", 0, 100000, false,
           {{"request", "7"}, {"switch", "3"}}),
      span(2, 1, "reply_quorum", "sw-3", 80000, 100000, false,
           {{"request", "7"}, {"switch", "3"}}),
      span(3, 0, "intra_pbft", "ctrl-0", 10000, 30000, false,
           {{"seq", "1"}, {"view", "0"}, {"digest", "aa"}}),
      span(4, 0, "agree", "protocol", 30000, 40000, false,
           {{"instance", "5"}, {"digest", "aa"}, {"txns", "3:7"}}),
      span(5, 0, "block_commit", "protocol", 50000, 70000, false,
           {{"height", "1"}, {"digest", "bb"}, {"txns", "3:7"}}),
      span(6, 0, "final_pbft", "ctrl-1", 50000, 65000, false,
           {{"seq", "1"}, {"view", "0"}, {"digest", "bb"}}),
  };
}

TEST(LatencyStats, NearestRankPercentiles) {
  std::vector<std::int64_t> samples;
  for (std::int64_t v = 100; v >= 1; --v) samples.push_back(v);
  const LatencyStats s = make_latency_stats(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min_us, 1);
  EXPECT_EQ(s.max_us, 100);
  EXPECT_EQ(s.p50_us, 50);
  EXPECT_EQ(s.p90_us, 90);
  EXPECT_EQ(s.p99_us, 99);
  EXPECT_DOUBLE_EQ(s.mean_us(), 50.5);
}

TEST(LatencyStats, EmptyIsAllZero) {
  const LatencyStats s = make_latency_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99_us, 0);
  EXPECT_DOUBLE_EQ(s.mean_us(), 0.0);
}

TEST(TraceAnalysis, ReconstructsFullCausalChain) {
  const TraceAnalysis analysis{clean_chain()};
  ASSERT_EQ(analysis.transactions().size(), 1u);
  const TransactionTrace& txn = analysis.transactions().front();
  EXPECT_EQ(txn.switch_id, 3u);
  EXPECT_EQ(txn.request_id, 7u);
  EXPECT_TRUE(txn.complete);
  EXPECT_EQ(txn.intra_span, 3u);
  EXPECT_EQ(txn.agree_span, 4u);
  EXPECT_EQ(txn.block_span, 5u);
  EXPECT_EQ(txn.final_span, 6u);
  EXPECT_EQ(txn.reply_span, 2u);
  ASSERT_TRUE(txn.has_instance);
  EXPECT_EQ(txn.instance, 5u);
  EXPECT_TRUE(analysis.findings().empty());
}

TEST(TraceAnalysis, SegmentsPartitionEndToEnd) {
  const TraceAnalysis analysis{clean_chain()};
  const TransactionTrace& txn = analysis.transactions().front();
  ASSERT_EQ(txn.segments.size(), 6u);
  // Contiguous cover of [start, end] in protocol order.
  std::int64_t cursor = txn.start_us;
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < txn.segments.size(); ++i) {
    EXPECT_EQ(txn.segments[i].phase, kPhaseOrder[i]);
    EXPECT_EQ(txn.segments[i].start_us, cursor);
    cursor = txn.segments[i].end_us;
    sum += txn.segments[i].duration_us();
  }
  EXPECT_EQ(cursor, txn.end_us);
  EXPECT_EQ(sum, txn.latency_us());
  EXPECT_EQ(txn.overlap_us, 0);
  // The known milestone walk: 10ms dispatch, 20ms intra, 10ms agree,
  // 10ms block wait, 20ms final, 30ms reply.
  EXPECT_EQ(txn.segments[0].duration_us(), 10000);
  EXPECT_EQ(txn.segments[1].duration_us(), 20000);
  EXPECT_EQ(txn.segments[2].duration_us(), 10000);
  EXPECT_EQ(txn.segments[3].duration_us(), 10000);
  EXPECT_EQ(txn.segments[4].duration_us(), 20000);
  EXPECT_EQ(txn.segments[5].duration_us(), 30000);
}

TEST(TraceAnalysis, ClampsOverlappingMilestones) {
  auto spans = clean_chain();
  spans[3].start = sim::SimTime::micros(5000);  // agree "opens" before intra starts
  const TraceAnalysis analysis{spans};
  const TransactionTrace& txn = analysis.transactions().front();
  EXPECT_EQ(txn.overlap_us, 5000);
  std::int64_t sum = 0;
  for (const Segment& seg : txn.segments) {
    EXPECT_GE(seg.duration_us(), 0);
    sum += seg.duration_us();
  }
  EXPECT_EQ(sum, txn.latency_us());  // clamping preserves the partition
}

TEST(TraceAnalysis, MissingConsensusSlotsFoldIntoNextPhase) {
  // HotStuff-engine traces have no intra/final slot spans; the walk must
  // still cover end-to-end via the stages that are present.
  std::vector<SpanRecord> spans{
      span(1, 0, "pkt_in", "sw-0", 0, 50000, false,
           {{"request", "1"}, {"switch", "0"}}),
      span(2, 1, "reply_quorum", "sw-0", 45000, 50000, false,
           {{"request", "1"}, {"switch", "0"}}),
      span(3, 0, "agree", "protocol", 20000, 25000, false,
           {{"instance", "2"}, {"digest", "cc"}, {"txns", "0:1"}}),
      span(4, 0, "block_commit", "protocol", 30000, 40000, false,
           {{"height", "1"}, {"digest", "dd"}, {"txns", "0:1"}}),
  };
  const TraceAnalysis analysis{spans};
  const TransactionTrace& txn = analysis.transactions().front();
  EXPECT_EQ(txn.intra_span, 0u);
  std::int64_t sum = 0;
  for (const Segment& seg : txn.segments) sum += seg.duration_us();
  EXPECT_EQ(sum, txn.latency_us());
  EXPECT_TRUE(analysis.findings().empty());
}

TEST(Anomalies, UnservedRequest) {
  std::vector<SpanRecord> spans{
      span(1, 0, "pkt_in", "sw-2", 0, 0, true, {{"request", "9"}, {"switch", "2"}}),
  };
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 1u);
  EXPECT_EQ(analysis.findings()[0].detector, "unserved_request");
  EXPECT_EQ(analysis.findings()[0].severity, Finding::Severity::kError);
  EXPECT_EQ(analysis.findings()[0].spans, std::vector<std::uint64_t>{1});
  EXPECT_FALSE(analysis.transactions().front().complete);
}

TEST(Anomalies, ShortReplyQuorum) {
  auto spans = clean_chain();
  spans[0].open = true;  // root never closed...
  spans[1].open = true;  // ...because the reply quorum never filled
  const TraceAnalysis analysis{spans};
  bool found = false;
  for (const Finding& f : analysis.findings()) {
    if (f.detector == "short_reply_quorum") {
      found = true;
      EXPECT_EQ(f.severity, Finding::Severity::kError);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Anomalies, StalledRound) {
  auto spans = clean_chain();
  spans[2].open = true;  // intra slot accepted, never executed
  const TraceAnalysis analysis{spans};
  bool found = false;
  for (const Finding& f : analysis.findings()) {
    if (f.detector == "stalled_round") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Anomalies, OrphanedAndUnsealedAgree) {
  std::vector<SpanRecord> spans{
      span(1, 0, "agree", "protocol", 0, 0, true,
           {{"instance", "1"}, {"digest", "aa"}, {"txns", "0:1"}}),
      span(2, 0, "agree", "protocol", 0, 5000, false,
           {{"instance", "2"}, {"digest", "bb"}, {"txns", "0:2"}}),
  };
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 2u);
  EXPECT_EQ(analysis.findings()[0].detector, "orphaned_agree");
  EXPECT_EQ(analysis.findings()[0].severity, Finding::Severity::kError);
  EXPECT_EQ(analysis.findings()[1].detector, "unsealed_agree");
  EXPECT_EQ(analysis.findings()[1].severity, Finding::Severity::kWarning);
}

TEST(Anomalies, TimeoutAndViewChangeInstants) {
  std::vector<SpanRecord> spans{
      span(1, 0, "intra_pbft.timeout", "ctrl-0", 500000, 500000, false,
           {{"seq", "3"}}),
      span(2, 0, "intra_pbft.view_change", "ctrl-0", 600000, 600000, false,
           {{"view", "1"}}),
  };
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 2u);
  EXPECT_EQ(analysis.findings()[0].detector, "consensus_timeout");
  EXPECT_EQ(analysis.findings()[1].detector, "view_change");
  for (const Finding& f : analysis.findings()) {
    EXPECT_EQ(f.severity, Finding::Severity::kWarning);
  }
}

TEST(Anomalies, PhaseOrderViolation) {
  auto spans = clean_chain();
  spans[1].end = sim::SimTime::micros(120000);  // reply outlives its pkt_in
  const TraceAnalysis analysis{spans};
  bool found = false;
  for (const Finding& f : analysis.findings()) {
    if (f.detector == "phase_order_violation") {
      found = true;
      EXPECT_EQ(f.spans.size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Anomalies, DanglingParent) {
  std::vector<SpanRecord> spans{
      span(7, 42, "reply_quorum", "sw-0", 0, 1000, false, {{"request", "1"}}),
  };
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 1u);
  EXPECT_EQ(analysis.findings()[0].detector, "dangling_parent");
}

TEST(Anomalies, MissingReplyQuorumOnCompleteTransaction) {
  auto spans = clean_chain();
  spans.erase(spans.begin() + 1);  // drop the reply_quorum child
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 1u);
  EXPECT_EQ(analysis.findings()[0].detector, "missing_reply_quorum");
  EXPECT_EQ(analysis.findings()[0].severity, Finding::Severity::kWarning);
}

TEST(Anomalies, OtherOpenSpanIsWarning) {
  std::vector<SpanRecord> spans{
      span(1, 0, "op_solve", "op", 0, 0, true, {}),
  };
  const TraceAnalysis analysis{spans};
  ASSERT_EQ(analysis.findings().size(), 1u);
  EXPECT_EQ(analysis.findings()[0].detector, "open_span");
  EXPECT_EQ(analysis.findings()[0].severity, Finding::Severity::kWarning);
}

TEST(Report, JsonIsDeterministic) {
  const TraceAnalysis a{clean_chain()};
  const TraceAnalysis b{clean_chain()};
  std::ostringstream ja;
  std::ostringstream jb;
  write_report_json(a, ja);
  write_report_json(b, jb);
  EXPECT_FALSE(ja.str().empty());
  EXPECT_EQ(ja.str(), jb.str());
}

/// The metrics of `diff` that regressed.
std::set<std::string> regressed(const prof::PerfDiffResult& diff) {
  std::set<std::string> out;
  for (const prof::MetricDelta& d : diff.deltas) {
    if (d.status == prof::MetricDelta::Status::kRegressed) out.insert(d.metric);
  }
  return out;
}

TEST(Diff, IdenticalRunsShowNoRegression) {
  const prof::BenchEntry a = bench_entry(TraceAnalysis{clean_chain()});
  const prof::BenchEntry b = bench_entry(TraceAnalysis{clean_chain()});
  const prof::PerfDiffResult diff = prof::perf_diff({a}, {b}, kTraceDiffOptions);
  EXPECT_EQ(diff.regressions(), 0u);
  ASSERT_EQ(a.values.count("e2e_us.p50_us"), 1u);
  EXPECT_EQ(diff.metrics_compared, a.values.size());
  EXPECT_TRUE(diff.deltas.empty());  // every metric moved by 0%
}

TEST(Diff, FlagsSlowdownAboveThreshold) {
  auto slow = clean_chain();
  // Stretch the reply phase by 50 ms: e2e and reply regress, others don't.
  slow[0].end = sim::SimTime::micros(150000);
  slow[1].end = sim::SimTime::micros(150000);
  const prof::BenchEntry base = bench_entry(TraceAnalysis{clean_chain()});
  const prof::BenchEntry cand = bench_entry(TraceAnalysis{slow});
  const prof::PerfDiffResult diff = prof::perf_diff({base}, {cand}, kTraceDiffOptions);
  EXPECT_GT(diff.metrics_compared, 2u);
  EXPECT_EQ(regressed(diff),
            (std::set<std::string>{"e2e_us.p50_us", "phases.reply.stats.p50_us"}));
}

}  // namespace
}  // namespace curb::obs
