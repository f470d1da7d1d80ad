// Unit tests for curb::obs::net — per-link accounting semantics, the
// Theorem 1 analytic bound, round_complexity extraction/auditing, and the
// deterministic report writers.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "curb/obs/net/complexity.hpp"
#include "curb/obs/net/link_stats.hpp"
#include "curb/obs/net/report.hpp"

namespace curb::obs::net {
namespace {

TEST(LinkStats, AttributesSendsPerLinkAndCategory) {
  LinkStats stats;
  stats.record(0, 1, 100, 0, false, "PKT-IN");
  stats.record(0, 1, 50, 0, false, "PKT-IN");
  stats.record(0, 2, 10, 0, false, "REPLY");

  ASSERT_EQ(stats.links().size(), 2u);
  const LinkEntry& a = stats.links().at({0, 1});
  EXPECT_EQ(a.msgs, 2u);
  EXPECT_EQ(a.bytes, 150u);
  EXPECT_EQ(a.by_category.at("PKT-IN"), 2u);
  EXPECT_EQ(stats.total_msgs(), 3u);
  EXPECT_EQ(stats.total_bytes(), 160u);
  EXPECT_EQ(stats.categories().at("REPLY").msgs, 1u);
}

TEST(LinkStats, DropsCountTowardConservationDupsDoNot) {
  LinkStats stats;
  stats.record(0, 1, 100, 0, true, "AGREE");   // dropped send
  stats.record(0, 1, 100, 2, false, "AGREE");  // send + 2 wire duplicates

  const LinkEntry& link = stats.links().at({0, 1});
  // Conservation mirrors MessageStats: both sends counted, dups separate.
  EXPECT_EQ(link.msgs, 2u);
  EXPECT_EQ(link.dups, 2u);
  EXPECT_EQ(link.drops, 1u);
  EXPECT_EQ(stats.total_msgs(), 2u);
  EXPECT_EQ(stats.total_dups(), 2u);
  EXPECT_EQ(stats.total_drops(), 1u);
  EXPECT_EQ(stats.category_dups("AGREE"), 2u);
  EXPECT_EQ(stats.category_dups("REPLY"), 0u);
}

TEST(LinkStats, ResetZeroesCountersButKeepsKeys) {
  LinkStats stats;
  stats.record(3, 4, 64, 1, false, "DATA");
  stats.reset();
  ASSERT_EQ(stats.links().size(), 1u);
  const LinkEntry& link = stats.links().at({3, 4});
  EXPECT_EQ(link.msgs, 0u);
  EXPECT_EQ(link.bytes, 0u);
  EXPECT_EQ(link.dups, 0u);
  EXPECT_EQ(stats.total_msgs(), 0u);
  EXPECT_EQ(stats.categories().at("DATA").msgs, 0u);
}

TEST(Complexity, AnalyticBoundMatchesFormula) {
  ComplexityParams p;
  p.c = 4;
  p.k = 18;
  p.n = 16;
  p.requests = 68;
  p.blocks = 6;
  const PhasePrediction bound = analytic_bound(p);
  // gmax unset ⇒ g = c = 4.
  EXPECT_EQ(bound.pkt_in, 68u * 4u);
  EXPECT_EQ(bound.intra_pbft, 68u * 24u);
  EXPECT_EQ(bound.agree, 68u * 16u);
  EXPECT_EQ(bound.final_pbft, 6u * 24u);
  EXPECT_EQ(bound.final_agree, 6u * 4u * 15u);
  EXPECT_EQ(bound.reply, 68u * 4u);
  EXPECT_EQ(bound.total, bound.pkt_in + bound.intra_pbft + bound.agree +
                             bound.final_pbft + bound.final_agree + bound.reply);
}

TEST(Complexity, GmaxWidensOnlyRequestScaledPhases) {
  ComplexityParams p;
  p.c = 4;
  p.gmax = 7;
  p.n = 16;
  p.requests = 10;
  p.blocks = 2;
  const PhasePrediction bound = analytic_bound(p);
  EXPECT_EQ(bound.pkt_in, 10u * 7u);
  EXPECT_EQ(bound.intra_pbft, 10u * 2u * 7u * 6u);
  EXPECT_EQ(bound.agree, 10u * 7u * 4u);
  EXPECT_EQ(bound.reply, 10u * 7u);
  // The final committee is always exactly c members.
  EXPECT_EQ(bound.final_pbft, 2u * 24u);
  EXPECT_EQ(bound.final_agree, 2u * 4u * 15u);
}

TEST(Complexity, Theorem1Formula) {
  EXPECT_EQ(theorem1_messages(4, 18, 16), 18u * 16u + 16u + 2u * 4u * 16u);
}

SpanRecord round_span(std::uint64_t id, const Attrs& attrs) {
  SpanRecord s;
  s.id = id;
  s.name = "round_complexity";
  s.track = "net";
  s.open = false;
  s.attrs = attrs;
  return s;
}

Attrs clean_round_attrs() {
  return {{"round", "1"},   {"kind", "pkt_in"}, {"engine", "pbft"},
          {"c", "4"},       {"gmax", "6"},      {"k", "3"},
          {"n", "8"},       {"requests", "10"}, {"blocks", "2"},
          {"m:PKT-IN", "50"},      {"m:intra-pbft", "400"},
          {"m:AGREE", "180"},      {"m:final-pbft", "48"},
          {"m:FINAL-AGREE", "56"}, {"m:REPLY", "50"},
          {"m:DATA", "5"},  {"total", "789"},   {"dup", "0"}};
}

TEST(Complexity, ExtractAuditsCleanRoundWithinBound) {
  const std::vector<SpanRecord> spans = {round_span(7, clean_round_attrs())};
  const std::vector<RoundComplexity> rounds = extract_round_complexity(spans);
  ASSERT_EQ(rounds.size(), 1u);
  const RoundComplexity& rc = rounds[0];
  EXPECT_EQ(rc.span_id, 7u);
  EXPECT_EQ(rc.round, 1u);
  EXPECT_EQ(rc.params.gmax, 6u);
  EXPECT_EQ(rc.params.group_bound(), 6u);
  EXPECT_TRUE(rc.bounded);
  // Control-plane total excludes the DATA wire traffic.
  EXPECT_EQ(rc.measured_total, 789u);
  EXPECT_EQ(rc.control_total, 784u);
  EXPECT_EQ(rc.phase_measured.agree, 180u);
  EXPECT_FALSE(rc.exceeds);
  EXPECT_GT(rc.ratio(), 0.0);
  EXPECT_LE(rc.ratio(), 1.0);
}

TEST(Complexity, PhaseOverrunFlagsEvenWithTotalSlack) {
  Attrs attrs = clean_round_attrs();
  for (auto& [key, value] : attrs) {
    // Inflate AGREE past its phase bound (10·6·4 = 240) while the total
    // stays far below the summed bound — only the per-phase check catches
    // this, which is the duplicate-AGREE fault signature.
    if (key == "m:AGREE") value = "250";
    if (key == "total") value = "859";
    if (key == "dup") value = "70";
  }
  const std::vector<RoundComplexity> rounds =
      extract_round_complexity({round_span(1, attrs)});
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_TRUE(rounds[0].exceeds);
  EXPECT_EQ(rounds[0].dup_wire, 70u);
  EXPECT_LT(rounds[0].control_total, rounds[0].bound.total);
}

TEST(Complexity, ReassignmentRoundsAreReportedNotBounded) {
  Attrs attrs = clean_round_attrs();
  for (auto& [key, value] : attrs) {
    if (key == "kind") value = "reass";
    if (key == "m:AGREE") value = "99999";
  }
  const std::vector<RoundComplexity> rounds =
      extract_round_complexity({round_span(1, attrs)});
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_FALSE(rounds[0].bounded);
  EXPECT_FALSE(rounds[0].exceeds);
}

TEST(Complexity, SkipsSpansWithMissingAttrs) {
  Attrs attrs = {{"kind", "pkt_in"}, {"round", "1"}};  // no c/k/n/...
  const std::vector<RoundComplexity> rounds =
      extract_round_complexity({round_span(1, attrs)});
  EXPECT_TRUE(rounds.empty());
}

TEST(Complexity, LedgerAccumulatesPerCategoryKey) {
  MsgLedger ledger;
  ledger.record("PKT-IN", "3:1", 4, 400);
  ledger.record("PKT-IN", "3:1", 4, 400);
  ledger.record("AGREE", "deadbeef", 16, 1600);
  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(ledger.entries().at({"PKT-IN", "3:1"}).msgs, 8u);
  EXPECT_EQ(ledger.total_msgs(), 24u);
}

TEST(Report, LinkMatrixWritersAreDeterministic) {
  LinkStats stats;
  stats.record(0, 1, 1000, 0, false, "PKT-IN");
  stats.record(1, 0, 500, 1, false, "REPLY");
  stats.record(0, 2, 200, 0, true, "AGREE");
  const NodeNameFn name = [](std::uint32_t idx) {
    return "node" + std::to_string(idx);
  };
  LinkReportOptions options;
  options.elapsed_s = 2.0;

  std::ostringstream json_a, json_b, csv, dot;
  write_link_matrix_json(stats, name, options, json_a);
  write_link_matrix_json(stats, name, options, json_b);
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_NE(json_a.str().find("\"src_name\":\"node0\""), std::string::npos);
  EXPECT_NE(json_a.str().find("\"drops\":1"), std::string::npos);

  write_link_matrix_csv(stats, name, options, csv);
  EXPECT_NE(csv.str().find("src,src_name,dst,dst_name"), std::string::npos);
  EXPECT_NE(csv.str().find("node1"), std::string::npos);

  write_link_dot(stats, name, options, dot);
  EXPECT_NE(dot.str().find("digraph curb_links"), std::string::npos);
  EXPECT_NE(dot.str().find("node0"), std::string::npos);
}

TEST(Report, LedgerJsonlRoundTrips) {
  MsgLedger ledger;
  ledger.record("AGREE", "cafe0123", 16, 1600);
  ledger.record("PKT-IN", "2:1", 6, 600);
  std::ostringstream out;
  write_ledger_jsonl(ledger, out);

  std::istringstream in{out.str()};
  const std::vector<LedgerRow> rows = parse_ledger_jsonl(in);
  ASSERT_EQ(rows.size(), 2u);
  // Map ordering: AGREE before PKT-IN.
  EXPECT_EQ(rows[0].category, "AGREE");
  EXPECT_EQ(rows[0].key, "cafe0123");
  EXPECT_EQ(rows[0].msgs, 16u);
  EXPECT_EQ(rows[0].bytes, 1600u);
  EXPECT_EQ(rows[1].category, "PKT-IN");
  EXPECT_EQ(rows[1].msgs, 6u);
}

TEST(Report, LedgerRejectsMalformedRows) {
  // Each must fail the whole read: a dropped row or a count read as 0 would
  // undercount the audit.
  const std::string good = R"({"category":"PKT-IN","key":"2:1","msgs":6,"bytes":600})";
  for (const char* bad : {R"({"category":"AGREE","key":"k","msgs":abc,"bytes":1})",
                          R"({"category":"AGREE","key":"k","msgs":16,"bytes":16)",
                          R"({"category":"AGREE","key":"k","msgs":16})",
                          R"({"category":"AGREE","key":"k","msgs":1,"bytes":1,"x":0})"}) {
    std::istringstream in{good + "\n" + bad + "\n" + good + "\n"};
    EXPECT_THROW((void)parse_ledger_jsonl(in), std::runtime_error) << bad;
  }
}

TEST(Report, ComplexityWritersCoverCleanAndExceedingRounds) {
  Attrs clean = clean_round_attrs();
  Attrs bad = clean_round_attrs();
  for (auto& [key, value] : bad) {
    if (key == "round") value = "2";
    if (key == "m:AGREE") value = "250";
  }
  const std::vector<RoundComplexity> rounds =
      extract_round_complexity({round_span(1, clean), round_span(2, bad)});
  ASSERT_EQ(rounds.size(), 2u);

  std::ostringstream text;
  write_complexity_text(rounds, text);
  EXPECT_NE(text.str().find("EXCEEDS"), std::string::npos);
  EXPECT_NE(text.str().find("AGREE 250 > 240 phase bound"), std::string::npos);

  std::ostringstream json_a, json_b;
  write_complexity_json(rounds, json_a);
  write_complexity_json(rounds, json_b);
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_NE(json_a.str().find("\"gmax\":6"), std::string::npos);
  EXPECT_NE(json_a.str().find("\"violations\":1"), std::string::npos);
}

}  // namespace
}  // namespace curb::obs::net
