#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "curb/obs/export.hpp"
#include "curb/obs/metrics.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/obs/trace.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::obs {
namespace {

using namespace curb::sim::literals;

// ---------------------------------------------------------------- metrics

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddAndHighWater) {
  Gauge g;
  g.set(3.0);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(4.0);  // below current -> unchanged
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(Histogram, BucketBoundariesAreLogScale) {
  // Defaults: bound[i] = 1 * 2^i for i in [0, 32), then +inf overflow.
  Histogram h;
  EXPECT_EQ(h.bucket_count(), 33u);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 2.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(10), 1024.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(31), std::ldexp(1.0, 31));
  EXPECT_TRUE(std::isinf(h.upper_bound(32)));
}

TEST(Histogram, RecordLandsInCorrectBucket) {
  Histogram h;
  // Bucket i covers (bound[i-1], bound[i]]: a value exactly on a bound goes
  // in that bound's bucket.
  h.record(1.0);    // bucket 0 (v <= 1)
  h.record(2.0);    // bucket 1 (1 < v <= 2)
  h.record(2.5);    // bucket 2 (2 < v <= 4)
  h.record(1e12);   // overflow bucket
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(1), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
  EXPECT_EQ(h.count_at(32), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
}

TEST(Histogram, SummaryStatistics) {
  Histogram h;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
  // Percentiles interpolate inside a bucket, so only bounds are guaranteed.
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 40.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 40.0);
}

TEST(Histogram, PercentileOfConstantStream) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7.0);
  // All mass in one bucket and min == max: interpolation must collapse.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 7.0);
}

TEST(Histogram, EmptyAndInvalidInputs) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_THROW((void)h.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(100.5), std::invalid_argument);
  EXPECT_THROW(Histogram({.first_bound = 0.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({.growth = 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({.finite_buckets = 0}), std::invalid_argument);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.record(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) EXPECT_EQ(h.count_at(i), 0u);
}

TEST(MetricsRegistry, SameSeriesResolvesToSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.messages", {{"category", "AGREE"}});
  // Label order must not matter for identity.
  Counter& b = reg.counter("net.messages", {{"category", "AGREE"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // A different label value is a different series.
  Counter& c = reg.counter("net.messages", {{"category", "REPLY"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, LabelOrderNormalized) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  Counter& b = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("dual");
  EXPECT_THROW((void)reg.gauge("dual"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("dual"), std::logic_error);
}

TEST(MetricsRegistry, SeriesKeyFormat) {
  EXPECT_EQ(MetricsRegistry::series_key("up", {}), "up");
  EXPECT_EQ(MetricsRegistry::series_key("net.delay_us", {{"category", "AGREE"}}),
            "net.delay_us{category=\"AGREE\"}");
  EXPECT_EQ(MetricsRegistry::series_key("d", {{"a", "1"}, {"b", "2"}}),
            "d{a=\"1\",b=\"2\"}");
}

// ----------------------------------------------------------------- tracer

struct TracerFixture {
  TracerFixture() {
    tracer.bind_clock(sim);
    tracer.set_enabled(true);
  }
  sim::Simulator sim;
  Tracer tracer;
};

TEST(Tracer, DisabledPathHandsOutInvalidIds) {
  Tracer t;  // never enabled (no clock bound)
  t.set_enabled(true);
  EXPECT_FALSE(t.enabled());
  const SpanId id = t.begin("x", "track");
  EXPECT_FALSE(id.valid());
  t.end(id);  // no-op, must not crash
  EXPECT_FALSE(t.begin_keyed(1, "x", "track"));
  EXPECT_FALSE(t.end_keyed(1));
  t.instant("x", "track");
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.tracks().empty());
}

TEST(Tracer, NestingFollowsOpenStackPerTrack) {
  TracerFixture f;
  const SpanId outer = f.tracer.begin("outer", "t0");
  const SpanId inner = f.tracer.begin("inner", "t0");
  const SpanId other = f.tracer.begin("elsewhere", "t1");  // separate track
  f.tracer.end(inner);
  f.tracer.end(outer);
  f.tracer.end(other);

  const auto& spans = f.tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, outer.value);
  EXPECT_EQ(spans[2].parent, 0u);  // other track -> not nested under t0
  EXPECT_EQ(f.tracer.open_count(), 0u);
  // Ids are dense and 1-based in begin order.
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[2].id, 3u);
}

TEST(Tracer, BeginUnderParentsExplicitly) {
  TracerFixture f;
  const SpanId slot_a = f.tracer.begin_under({}, "slot", "t");
  const SpanId slot_b = f.tracer.begin_under({}, "slot", "t");  // interleaved
  const SpanId phase_a = f.tracer.begin_under(slot_a, "phase", "t");
  // Explicit spans bypass the stack: a later begin() does not nest in them.
  const SpanId stacked = f.tracer.begin("stacked", "t");
  const auto& spans = f.tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, 0u);  // root despite slot_a still open
  EXPECT_EQ(spans[2].parent, slot_a.value);
  EXPECT_EQ(spans[3].parent, 0u);  // not under slot_b/phase_a
  f.tracer.end(phase_a);
  f.tracer.end(slot_b);
  f.tracer.end(slot_a);
  f.tracer.end(stacked);
  EXPECT_EQ(f.tracer.open_count(), 0u);
  EXPECT_FALSE(spans[2].open);
}

TEST(Tracer, SpansCaptureVirtualTime) {
  TracerFixture f;
  SpanId id;
  f.sim.schedule(5_ms, [&] { id = f.tracer.begin("work", "t"); });
  f.sim.schedule(12_ms, [&] { f.tracer.end(id); });
  f.sim.run();
  ASSERT_EQ(f.tracer.spans().size(), 1u);
  const SpanRecord& s = f.tracer.spans()[0];
  EXPECT_EQ(s.start, 5_ms);
  EXPECT_EQ(s.end, 12_ms);
  EXPECT_FALSE(s.open);
}

TEST(Tracer, DoubleEndIsNoOp) {
  TracerFixture f;
  const SpanId id = f.tracer.begin("once", "t");
  f.tracer.end(id);
  f.tracer.end(id);  // already closed
  ASSERT_EQ(f.tracer.spans().size(), 1u);
  EXPECT_FALSE(f.tracer.spans()[0].open);
}

TEST(Tracer, KeyedSpanFirstOpenerWins) {
  TracerFixture f;
  EXPECT_TRUE(f.tracer.begin_keyed(7, "agree", "protocol"));
  EXPECT_FALSE(f.tracer.begin_keyed(7, "agree", "protocol"));  // duplicate
  EXPECT_EQ(f.tracer.spans().size(), 1u);
  EXPECT_TRUE(f.tracer.end_keyed(7));
  EXPECT_FALSE(f.tracer.end_keyed(7));  // already closed
  // Keys are single-use: a straggler reaching the stage after the quorum
  // closed it must not re-open the stage as a phantom span.
  EXPECT_FALSE(f.tracer.begin_keyed(7, "agree", "protocol"));
  EXPECT_EQ(f.tracer.spans().size(), 1u);
  // A different key is unaffected.
  EXPECT_TRUE(f.tracer.begin_keyed(8, "agree", "protocol"));
  EXPECT_EQ(f.tracer.spans().size(), 2u);
}

TEST(Tracer, InstantIsZeroDurationClosedSpan) {
  TracerFixture f;
  f.sim.schedule(3_ms, [&] { f.tracer.instant("view_change", "ctrl-0"); });
  f.sim.run();
  ASSERT_EQ(f.tracer.spans().size(), 1u);
  const SpanRecord& s = f.tracer.spans()[0];
  EXPECT_EQ(s.start, s.end);
  EXPECT_EQ(s.start, 3_ms);
  EXPECT_FALSE(s.open);
}

TEST(Tracer, TracksInFirstUseOrder) {
  TracerFixture f;
  f.tracer.instant("a", "zeta");
  f.tracer.instant("b", "alpha");
  f.tracer.instant("c", "zeta");
  ASSERT_EQ(f.tracer.tracks().size(), 2u);
  EXPECT_EQ(f.tracer.tracks()[0], "zeta");  // first use wins, not sorted
  EXPECT_EQ(f.tracer.tracks()[1], "alpha");
}

TEST(Tracer, ClearDropsEverything) {
  TracerFixture f;
  (void)f.tracer.begin("x", "t");
  f.tracer.clear();
  EXPECT_TRUE(f.tracer.spans().empty());
  EXPECT_TRUE(f.tracer.tracks().empty());
  EXPECT_EQ(f.tracer.open_count(), 0u);
}

TEST(ScopedSpan, ClosesOnScopeExit) {
  TracerFixture f;
  {
    ScopedSpan span{f.tracer, "scoped", "t"};
    EXPECT_EQ(f.tracer.open_count(), 1u);
  }
  EXPECT_EQ(f.tracer.open_count(), 0u);
}

// -------------------------------------------------------------- exporters

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string{"a\x01z"}), "a\\u0001z");
}

TEST(Export, SpansJsonlRoundTrip) {
  TracerFixture f;
  SpanId outer;
  f.sim.schedule(1_ms, [&] {
    outer = f.tracer.begin("pkt_in", "sw-0", {{"request", "42"}, {"src", "0"}});
  });
  f.sim.schedule(2_ms, [&] { f.tracer.instant("accusation", "sw-0", {{"id", "3"}}); });
  f.sim.schedule(9_ms, [&] { f.tracer.end(outer); });
  f.sim.schedule(10_ms, [&] { (void)f.tracer.begin("dangling", "ctrl-1"); });
  f.sim.run();

  std::stringstream buf;
  write_spans_jsonl(f.tracer, buf);
  const auto parsed = parse_spans_jsonl(buf);

  const auto& spans = f.tracer.spans();
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].id, spans[i].id);
    EXPECT_EQ(parsed[i].parent, spans[i].parent);
    EXPECT_EQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].track, spans[i].track);
    EXPECT_EQ(parsed[i].start, spans[i].start);
    EXPECT_EQ(parsed[i].open, spans[i].open);
    EXPECT_EQ(parsed[i].attrs, spans[i].attrs);
    if (!spans[i].open) EXPECT_EQ(parsed[i].end, spans[i].end);
  }
}

TEST(Export, ParseRejectsGarbage) {
  std::stringstream buf{"{\"id\":not-json}\n"};
  EXPECT_THROW((void)parse_spans_jsonl(buf), std::runtime_error);
}

TEST(Export, ChromeTraceShape) {
  TracerFixture f;
  SpanId id;
  f.sim.schedule(1_ms, [&] { id = f.tracer.begin("pkt_in", "sw-0"); });
  f.sim.schedule(4_ms, [&] { f.tracer.end(id); });
  f.sim.schedule(5_ms, [&] { (void)f.tracer.begin("open_span", "ctrl-0"); });
  f.sim.run();

  std::stringstream buf;
  write_chrome_trace(f.tracer, nullptr, buf);
  const std::string out = buf.str();
  // Valid-ish trace_event JSON: an event array, complete events with
  // microsecond timestamps, and thread-name metadata per track.
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"pkt_in\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":3000"), std::string::npos);
  EXPECT_NE(out.find("thread_name"), std::string::npos);
  EXPECT_NE(out.find("sw-0"), std::string::npos);
  // Open spans are exported, tagged as such.
  EXPECT_NE(out.find("\"open\":\"true\""), std::string::npos);
  // Top-level object, closed properly.
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.substr(out.size() - 2), "}\n");
}

TEST(Export, MetricsJsonAndCsvShape) {
  MetricsRegistry reg;
  reg.counter("core.rounds").inc(5);
  reg.gauge("sim.queue_high_water").set(17.0);
  Histogram& h = reg.histogram("net.delay_us", {{"category", "AGREE"}});
  h.record(100.0);
  h.record(200.0);

  std::stringstream json;
  write_metrics_json(reg, json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"core.rounds\""), std::string::npos);
  EXPECT_NE(j.find("\"value\":5"), std::string::npos);
  EXPECT_NE(j.find("net.delay_us{category=\\\"AGREE\\\"}"), std::string::npos);
  EXPECT_NE(j.find("\"count\":2"), std::string::npos);

  std::stringstream csv;
  write_metrics_csv(reg, csv);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "series,kind,count,sum,min,max,mean,p50,p90,p99,value");
  std::size_t rows = 0;
  bool saw_labeled = false;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    ++rows;
    if (line.find("delay_us") != std::string::npos) {
      saw_labeled = true;
      // RFC 4180: the literal quotes in the label value are doubled inside
      // the quoted field.
      EXPECT_EQ(line.substr(0, line.find(',')),
                "\"net.delay_us{category=\"\"AGREE\"\"}\"");
    }
  }
  EXPECT_TRUE(saw_labeled);
  EXPECT_EQ(rows, reg.size());
}

TEST(Export, DeterministicAcrossIdenticalRuns) {
  // Same schedule, two independent tracers: byte-identical exports.
  auto run_once = [] {
    TracerFixture f;
    for (int i = 0; i < 5; ++i) {
      f.sim.schedule(sim::SimTime::millis(i), [&f, i] {
        const SpanId s = f.tracer.begin("round", "t" + std::to_string(i % 2),
                                        {{"i", std::to_string(i)}});
        f.tracer.end(s);
      });
    }
    f.sim.run();
    std::stringstream chrome;
    std::stringstream jsonl;
    write_chrome_trace(f.tracer, nullptr, chrome);
    write_spans_jsonl(f.tracer, jsonl);
    return chrome.str() + "\x1e" + jsonl.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Observatory, EnableBindsClockAndStartsTracer) {
  sim::Simulator sim;
  Observatory obsy;
  EXPECT_FALSE(obsy.tracer.enabled());
  obsy.enable(sim);
  EXPECT_TRUE(obsy.tracer.enabled());
  const SpanId id = obsy.tracer.begin("x", "t");
  EXPECT_TRUE(id.valid());
}

}  // namespace
}  // namespace curb::obs
