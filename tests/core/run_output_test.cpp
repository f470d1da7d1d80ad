// RunOutput is the one writer behind curb-sim and every bench: it writes
// each requested file from a network and from the process, and names every
// path it cannot write.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "curb/core/run_output.hpp"
#include "curb/core/simulation.hpp"

namespace curb::core {
namespace {

CurbOptions small_options() {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.observability = true;
  opts.msg_ledger = true;
  opts.slo_rules = "rate(core.rounds) >= 0";
  return opts;
}

/// Every network file plus the two host profiles, each named `prefix` + a
/// short file name.
OutputPaths paths_with(const std::string& prefix) {
  OutputPaths paths;
  for (auto [field, name] : std::vector<std::pair<std::string OutputPaths::*, const char*>>{
           {&OutputPaths::slo_report, "slo.json"},  {&OutputPaths::trace, "t.json"},
           {&OutputPaths::trace_jsonl, "s.jsonl"},  {&OutputPaths::metrics_json, "m.json"},
           {&OutputPaths::metrics_csv, "m.csv"},    {&OutputPaths::link_matrix, "l.json"},
           {&OutputPaths::link_csv, "l.csv"},       {&OutputPaths::link_dot, "l.dot"},
           {&OutputPaths::ledger, "ledger.jsonl"},  {&OutputPaths::prof, "p.folded"},
           {&OutputPaths::prof_chrome, "p.json"}}) {
    paths.*field = prefix + name;
  }
  return paths;
}

std::vector<std::string> all_paths(const OutputPaths& p) {
  return {p.slo_report,  p.trace,    p.trace_jsonl, p.metrics_json, p.metrics_csv, p.link_matrix,
          p.link_csv,    p.link_dot, p.ledger,      p.prof,         p.prof_chrome};
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(RunOutput, WritesEveryRequestedFile) {
  const OutputPaths paths =
      paths_with(::testing::TempDir() + "/curb_run_output." + std::to_string(::getpid()) + ".");
  {
    RunOutput output{paths, "test"};
    CurbSimulation sim{net::random_geo_topology(8, 10, 99), small_options()};
    (void)sim.run_packet_in_round();
    EXPECT_TRUE(output.write_network(sim.network()));
    EXPECT_TRUE(output.write_process());
  }
  for (const std::string& path : all_paths(paths)) {
    EXPECT_FALSE(slurp(path).empty()) << path;
    std::remove(path.c_str());
  }
}

TEST(RunOutput, ChromeTraceCarriesCounterEvents) {
  const std::string path =
      ::testing::TempDir() + "/curb_run_output_trace." + std::to_string(::getpid());
  OutputPaths paths;
  paths.trace = path;
  RunOutput output{paths, "test"};
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), small_options()};
  (void)sim.run_packet_in_round();
  ASSERT_TRUE(output.write_network(sim.network()));
  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunOutput, ReportsEveryUnwritablePath) {
  const OutputPaths paths = paths_with("/nonexistent-dir/");
  RunOutput output{paths, "test"};
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), small_options()};
  (void)sim.run_packet_in_round();
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(output.write_network(sim.network()));
  EXPECT_FALSE(output.write_process());
  const std::string err = ::testing::internal::GetCapturedStderr();
  for (const std::string& path : all_paths(paths)) {
    EXPECT_NE(err.find("test: cannot write " + path + "\n"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace curb::core
