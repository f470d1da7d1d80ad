// End-to-end telemetry pipeline: run the real simulation with the windowed
// collector on, stream JSONL, parse it back, and drive the SLO watchdog —
// the same path curb-sim --ts-out/--slo and curb-watch take. Also pins the
// headline determinism guarantee: telemetry must not change protocol
// outputs, and same-seed telemetry must be byte-identical.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "curb/core/simulation.hpp"
#include "curb/obs/slo.hpp"
#include "curb/obs/timeseries.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions ts_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  opts.op_fixed_time = 20_ms;
  opts.ts_window = 50_ms;
  return opts;
}

/// A temporary file private to this process: this suite is built into two test
/// binaries (plain and allocation-accounted) that ctest may run at once.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<RoundMetrics> run_rounds(const CurbOptions& opts, int rounds) {
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  std::vector<RoundMetrics> out;
  for (int i = 0; i < rounds; ++i) out.push_back(sim.run_packet_in_round(2));
  sim.network().finalize_telemetry();
  return out;
}

TEST(TsPipeline, TelemetryDoesNotChangeProtocolOutputs) {
  CurbOptions plain;
  plain.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  plain.controller_capacity = 8.0;
  plain.op_time_mode = OpTimeMode::kFixed;
  plain.op_fixed_time = 20_ms;

  const std::vector<RoundMetrics> bare = run_rounds(plain, 2);
  const std::vector<RoundMetrics> observed = run_rounds(ts_options(), 2);
  ASSERT_EQ(bare.size(), observed.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].issued, observed[i].issued);
    EXPECT_EQ(bare[i].accepted, observed[i].accepted);
    EXPECT_DOUBLE_EQ(bare[i].mean_latency_ms, observed[i].mean_latency_ms);
    EXPECT_DOUBLE_EQ(bare[i].max_latency_ms, observed[i].max_latency_ms);
    EXPECT_EQ(bare[i].messages, observed[i].messages);
  }
}

TEST(TsPipeline, SameSeedRunsEmitByteIdenticalJsonl) {
  const std::string path_a = temp_path("curb_ts_a.jsonl");
  const std::string path_b = temp_path("curb_ts_b.jsonl");
  for (const std::string& path : {path_a, path_b}) {
    CurbOptions opts = ts_options();
    opts.ts_out = path;
    (void)run_rounds(opts, 2);
  }
  const std::string a = slurp(path_a);
  const std::string b = slurp(path_b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(TsPipeline, StreamedJsonlMatchesInMemoryWindows) {
  const std::string path = temp_path("curb_ts_stream.jsonl");
  CurbOptions opts = ts_options();
  opts.ts_out = path;
  opts.ts_retention = 1'000'000;  // keep everything for the comparison
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  (void)sim.run_packet_in_round(2);
  sim.network().finalize_telemetry();

  obs::TsCollector* ts = sim.network().ts();
  ASSERT_NE(ts, nullptr);
  ASSERT_GT(ts->windows_closed(), 0u);

  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in);
  const std::vector<obs::TsWindow> parsed = obs::parse_ts_jsonl(in);
  ASSERT_EQ(parsed.size(), ts->windows().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].index, ts->windows()[i].index);
    EXPECT_EQ(parsed[i].series, ts->windows()[i].series);
  }
  std::remove(path.c_str());
}

TEST(TsPipeline, SeriesCarryGroupLoadAndProtocolMetrics) {
  CurbOptions opts = ts_options();
  opts.ts_retention = 1'000'000;
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  (void)sim.run_packet_in_round(2);
  sim.network().finalize_telemetry();

  const obs::TsCollector* ts = sim.network().ts();
  ASSERT_NE(ts, nullptr);
  bool saw_group_load = false, saw_groups = false, saw_latency = false;
  for (const auto& window : ts->windows()) {
    for (const auto& [key, value] : window.series) {
      if (key.rfind("core.group_load{", 0) == 0) {
        saw_group_load = true;
        EXPECT_EQ(value.kind, obs::TsValue::Kind::kGauge);
      }
      if (key == "core.groups") saw_groups = true;
      if (key == "core.request_latency_us") {
        saw_latency = true;
        EXPECT_EQ(value.kind, obs::TsValue::Kind::kHist);
        EXPECT_GT(value.count, 0u);
      }
    }
  }
  EXPECT_TRUE(saw_group_load);
  EXPECT_TRUE(saw_groups);
  EXPECT_TRUE(saw_latency);
}

TEST(TsPipeline, SloEngineFiresOnInjectedFaults) {
  CurbOptions opts = ts_options();
  opts.fault_spec = "drop(p=0.5,cat=REPLY)";
  opts.slo_rules = "rate(net.dropped{category=\"REPLY\",reason=\"fault\"}) == 0";
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  (void)sim.run_packet_in_round(2);
  sim.network().finalize_telemetry();

  obs::SloEngine* slo = sim.network().slo();
  ASSERT_NE(slo, nullptr);
  EXPECT_TRUE(slo->breached());
  // The breach also feeds back into the registry (and hence telemetry).
  EXPECT_GT(sim.network()
                .observatory()
                ->metrics.counter("slo.breaches",
                                  {{"rule", slo->rules().rules[0].text()}})
                .value(),
            0u);
}

TEST(TsPipeline, CleanRunSatisfiesLatencySlo) {
  CurbOptions opts = ts_options();
  opts.slo_rules =
      "p99(core.request_latency_us) < 2s over 5; rate(bft.view_changes) == 0";
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  (void)sim.run_packet_in_round(2);
  sim.network().finalize_telemetry();
  ASSERT_NE(sim.network().slo(), nullptr);
  EXPECT_FALSE(sim.network().slo()->breached());
}

TEST(TsPipeline, SloRulesImplyTelemetryAndObservability) {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.slo_rules = "rate(core.rounds) >= 0";
  ASSERT_FALSE(opts.observability);
  ASSERT_EQ(opts.ts_window, sim::SimTime::zero());
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  EXPECT_NE(sim.network().observatory(), nullptr);
  EXPECT_NE(sim.network().ts(), nullptr);
  EXPECT_NE(sim.network().slo(), nullptr);
  EXPECT_EQ(sim.network().ts()->options().window, sim::SimTime::millis(100));
}

TEST(TsPipeline, DeferredInitFlushesTelemetryWhenInfeasible) {
  const std::string path = temp_path("curb_ts_abort.jsonl");
  CurbOptions opts = ts_options();
  opts.ts_out = path;
  opts.max_cs_delay_ms = 0.01;  // no controller can serve any switch
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts,
                     CurbSimulation::DeferInit{}};
  EXPECT_FALSE(sim.initialized());
  EXPECT_THROW(sim.initialize(), std::runtime_error);
  // The abort path still closes the stream; an empty run yields an empty
  // but complete (flushed, parseable) file.
  sim.network().finalize_telemetry();
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in);
  EXPECT_NO_THROW((void)obs::parse_ts_jsonl(in));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace curb::core
