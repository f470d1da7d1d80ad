// curb-prof: host-time and host-memory profile reports and bench regression
// gating.
//
//   curb-prof report     <profile.folded> [--top N]
//   curb-prof perf-diff  <base.json> <candidate.json> [--json]
//                        [--threshold PCT] [--host-threshold PCT]
//                        [--floor ABS] [--warn-only]
//   curb-prof mem-report <profile.json> [--folded FILE]
//   curb-prof mem-diff   <base.json> <candidate.json>
//                        [--threshold PCT] [--floor ABS] [--warn-only]
//
// `report` renders a collapsed-stack profile (CURB_PROF=FILE on any bench
// binary, or curb-sim --prof FILE) as a per-component share table plus the
// top-N self-time frames. `perf-diff` compares two BENCH_results.json files
// metric by metric and exits 1 when a virtual-time metric regressed past the
// threshold (host.* and memory.* metrics only ever warn — they measure the
// machine, not the protocol).
//
// `mem-report` renders a memory profile (CURB_MEM_OUT=FILE on any bench
// binary or curb-sim) as the per-tag allocator table; with --folded it also
// summarizes a collapsed-stack memory flamegraph (CURB_MEM_FOLDED=FILE) by
// allocation-site frames. `mem-diff` compares two memory profiles and exits
// 1 on growth past the threshold.
//
// Exit codes (curb/core/exit_codes.hpp): 0 ok, 1 regression, 2 usage/parse.
//
// Example:
//   CURB_PROF=run.folded CURB_MEM_OUT=run.mem.json ./build/bench/bench_fig5_pktin
//   curb-prof report run.folded
//   curb-prof mem-report run.mem.json
//   curb-prof perf-diff BENCH_baseline.json BENCH_results.json

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/parse_number.hpp"
#include "curb/obs/res/report.hpp"
#include "curb/prof/bench_diff.hpp"
#include "curb/prof/export.hpp"

namespace {

using curb::core::kExitFinding;
using curb::core::kExitOk;
using curb::core::kExitUsage;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s report     <profile.folded> [--top N]\n"
               "       %s perf-diff  <base.json> <candidate.json> [--json]\n"
               "                     [--threshold PCT] [--host-threshold PCT]\n"
               "                     [--floor ABS] [--warn-only]\n"
               "       %s mem-report <profile.json> [--folded FILE]\n"
               "       %s mem-diff   <base.json> <candidate.json>\n"
               "                     [--threshold PCT] [--floor ABS] [--warn-only]\n",
               argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

/// Parses the value after flag args[i] into `out` and steps i past it; a
/// missing or malformed value is a usage error.
template <typename T>
void number(const char* argv0, const std::vector<std::string>& args, std::size_t& i, T& out) {
  if (i + 1 >= args.size() || !curb::core::parse_flag_value(argv0, args[i], args[i + 1], out)) {
    usage(argv0);
  }
  ++i;
}

int run_report(const char* argv0, const std::vector<std::string>& args) {
  if (args.empty()) usage(argv0);
  std::string path;
  std::size_t top_n = 20;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top") {
      number(argv0, args, i, top_n);
    } else if (path.empty()) {
      path = args[i];
    } else {
      usage(argv0);
    }
  }
  if (path.empty()) usage(argv0);
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path.c_str());
    return kExitUsage;
  }
  try {
    const std::vector<curb::prof::FoldedLine> lines = curb::prof::parse_collapsed(in);
    curb::prof::write_profile_report(lines, std::cout, top_n);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    return kExitUsage;
  }
  return kExitOk;
}

std::vector<curb::prof::BenchEntry> load_bench(const char* argv0,
                                               const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path.c_str());
    std::exit(kExitUsage);
  }
  try {
    return curb::prof::parse_bench_json(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    std::exit(kExitUsage);
  }
}

int run_perf_diff(const char* argv0, const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  curb::prof::PerfDiffOptions options;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--threshold") {
      number(argv0, args, i, options.threshold_pct);
    } else if (args[i] == "--host-threshold") {
      number(argv0, args, i, options.host_threshold_pct);
    } else if (args[i] == "--floor") {
      number(argv0, args, i, options.floor);
    } else if (args[i] == "--warn-only") {
      options.warn_only = true;
    } else if (args[i].rfind("--", 0) == 0) {
      usage(argv0);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) usage(argv0);
  const auto base = load_bench(argv0, paths[0]);
  const auto candidate = load_bench(argv0, paths[1]);
  const curb::prof::PerfDiffResult diff =
      curb::prof::perf_diff(base, candidate, options);
  if (as_json) {
    curb::prof::write_perf_diff_json(diff, std::cout);
  } else {
    curb::prof::write_perf_diff_text(diff, std::cout);
  }
  return diff.regressions() > 0 ? kExitFinding : kExitOk;
}

curb::obs::res::MemSnapshot load_mem_profile(const char* argv0,
                                             const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path.c_str());
    std::exit(kExitUsage);
  }
  try {
    return curb::obs::res::parse_mem_profile_json(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    std::exit(kExitUsage);
  }
}

int run_mem_report(const char* argv0, const std::vector<std::string>& args) {
  std::string path;
  std::string folded_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--folded") {
      if (i + 1 >= args.size()) usage(argv0);
      folded_path = args[++i];
    } else if (path.empty()) {
      path = args[i];
    } else {
      usage(argv0);
    }
  }
  if (path.empty()) usage(argv0);
  const curb::obs::res::MemSnapshot snap = load_mem_profile(argv0, path);
  curb::obs::res::write_mem_report(snap, std::cout);
  if (!folded_path.empty()) {
    std::ifstream in{folded_path};
    if (!in) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv0, folded_path.c_str());
      return kExitUsage;
    }
    try {
      // A memory flamegraph is the same collapsed-stack format with bytes as
      // the value — the time-profile report renders it with byte totals
      // shown in the "ms" columns scaled 1e6 (i.e. MB); print a header so
      // the units read right.
      const std::vector<curb::prof::FoldedLine> lines =
          curb::prof::parse_collapsed(in);
      std::cout << "\nallocation-site frames (values are bytes; table units "
                   "read as MB)\n";
      curb::prof::write_profile_report(lines, std::cout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s: %s\n", argv0, folded_path.c_str(), e.what());
      return kExitUsage;
    }
  }
  return kExitOk;
}

int run_mem_diff(const char* argv0, const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  curb::obs::res::MemDiffOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold") {
      number(argv0, args, i, options.threshold_pct);
    } else if (args[i] == "--floor") {
      number(argv0, args, i, options.floor);
    } else if (args[i] == "--warn-only") {
      options.warn_only = true;
    } else if (args[i].rfind("--", 0) == 0) {
      usage(argv0);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) usage(argv0);
  const curb::obs::res::MemSnapshot base = load_mem_profile(argv0, paths[0]);
  const curb::obs::res::MemSnapshot candidate = load_mem_profile(argv0, paths[1]);
  const curb::obs::res::MemDiffResult diff =
      curb::obs::res::mem_diff(base, candidate, options);
  curb::obs::res::write_mem_diff_text(diff, std::cout);
  return diff.regressions() > 0 ? kExitFinding : kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  if (command == "report") return run_report(argv[0], args);
  if (command == "perf-diff") return run_perf_diff(argv[0], args);
  if (command == "mem-report") return run_mem_report(argv[0], args);
  if (command == "mem-diff") return run_mem_diff(argv[0], args);
  usage(argv[0]);
}
