// curb-trace: causal protocol analytics over curb span dumps.
//
//   curb-trace report        <spans.jsonl> [--json]
//   curb-trace critical-path <spans.jsonl> [--json] [--limit N]
//   curb-trace anomalies     <spans.jsonl> [--json]
//   curb-trace complexity    <spans.jsonl> [--json] [--ledger FILE] [--limit N]
//   curb-trace diff          <base.jsonl> <cand.jsonl> [--json]
//                            [--threshold PCT] [--floor US]
//
// Input is a spans-JSONL dump (curb-sim --trace-jsonl FILE, or the
// CURB_TRACE_JSONL env var understood by the benches). `report` prints the
// per-phase latency breakdown, `critical-path` the slowest transactions'
// segment walks, `anomalies` the protocol-conformance findings (exit 1 if
// any), `complexity` the Theorem 1 message-complexity audit over the run's
// round_complexity instants (exit 1 when any PKT-IN round exceeds the
// analytic bound; --ledger joins in a curb-sim --ledger-out dump), and
// `diff` compares two runs' end-to-end and per-phase p50 latency through
// prof::perf_diff, the engine behind curb-prof perf-diff (exit 1 on
// regressions).
// Exit codes follow curb/core/exit_codes.hpp.
//
// Example: curb-sim --rounds 5 --trace-jsonl t.jsonl && curb-trace report t.jsonl

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/parse_number.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/report.hpp"
#include "curb/prof/bench_diff.hpp"
#include "curb/prof/json.hpp"

namespace {

using curb::core::kExitFinding;
using curb::core::kExitOk;
using curb::core::kExitUsage;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s report        <spans.jsonl> [--json]\n"
               "       %s critical-path <spans.jsonl> [--json] [--limit N]\n"
               "       %s anomalies     <spans.jsonl> [--json]\n"
               "       %s complexity    <spans.jsonl> [--json] [--ledger FILE]"
               " [--limit N]\n"
               "       %s diff          <base.jsonl> <cand.jsonl> [--json]\n"
               "                        [--threshold PCT] [--floor US]\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

/// Reads `path` with `parse`. A file that cannot be opened or parsed is a
/// usage error: print why (`argv0: PATH: <error>` for a parse error) and exit.
template <typename Parse>
auto read_file(const char* argv0, const std::string& path, Parse parse) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", argv0, path.c_str());
    std::exit(kExitUsage);
  }
  try {
    return parse(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(), e.what());
    std::exit(kExitUsage);
  }
}

curb::obs::TraceAnalysis load(const char* argv0, const std::string& path) {
  return read_file(argv0, path, [](std::istream& in) {
    return curb::obs::TraceAnalysis{curb::obs::parse_spans_jsonl(in)};
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];

  std::vector<std::string> paths;
  bool json = false;
  std::size_t limit = 5;
  bool limit_set = false;
  std::string ledger_path;
  curb::prof::PerfDiffOptions diff_options = curb::obs::kTraceDiffOptions;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&](auto& out) {
      if (!curb::core::parse_flag_value(argv[0], arg, value(), out)) usage(argv[0]);
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--ledger") {
      ledger_path = value();
    } else if (arg == "--limit") {
      number(limit);
      limit_set = true;
    } else if (arg == "--threshold") {
      number(diff_options.threshold_pct);
    } else if (arg == "--floor") {
      std::int64_t floor_us = 0;
      number(floor_us);
      diff_options.floor = static_cast<double>(floor_us);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }

  if (command == "report") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load(argv[0], paths[0]);
    if (json) {
      curb::obs::write_report_json(analysis, std::cout);
    } else {
      curb::obs::write_report_text(analysis, std::cout);
    }
    return kExitOk;
  }
  if (command == "critical-path") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load(argv[0], paths[0]);
    if (json) {
      // JSON consumers get every transaction unless explicitly capped.
      curb::obs::write_critical_path_json(analysis, std::cout, limit_set ? limit : 0);
    } else {
      curb::obs::write_critical_path_text(analysis, std::cout, limit);
    }
    return kExitOk;
  }
  if (command == "anomalies") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load(argv[0], paths[0]);
    if (json) {
      curb::obs::write_anomalies_json(analysis, std::cout);
    } else {
      curb::obs::write_anomalies_text(analysis, std::cout);
    }
    return analysis.findings().empty() ? kExitOk : kExitFinding;
  }
  if (command == "complexity") {
    if (paths.size() != 1) usage(argv[0]);
    const curb::obs::TraceAnalysis analysis = load(argv[0], paths[0]);
    const std::vector<curb::obs::net::RoundComplexity> rounds =
        curb::obs::net::extract_round_complexity(analysis.spans());
    std::vector<curb::obs::net::LedgerRow> ledger;
    if (!ledger_path.empty()) {
      ledger = read_file(argv[0], ledger_path, curb::obs::net::parse_ledger_jsonl);
    }
    if (json) {
      if (ledger_path.empty()) {
        curb::obs::net::write_complexity_json(rounds, std::cout);
      } else {
        std::ostringstream complexity;
        curb::obs::net::write_complexity_json(rounds, complexity);
        std::string body = complexity.str();
        while (!body.empty() && body.back() == '\n') body.pop_back();
        std::cout << "{\"complexity\":" << body << ",\"ledger\":[";
        bool first = true;
        for (const auto& row : ledger) {
          std::cout << (first ? "" : ",") << "{\"category\":\""
                    << curb::prof::json_escape(row.category) << "\",\"key\":\""
                    << curb::prof::json_escape(row.key) << "\",\"msgs\":" << row.msgs
                    << ",\"bytes\":" << row.bytes << "}";
          first = false;
        }
        std::cout << "]}\n";
      }
    } else {
      curb::obs::net::write_complexity_text(rounds, std::cout);
      if (!ledger_path.empty()) {
        // Per-category rollup of the per-transaction ledger, then the
        // heaviest join keys — stacked traffic shows up as one key with an
        // outsized message count.
        struct CatAgg {
          std::uint64_t keys = 0;
          std::uint64_t msgs = 0;
          std::uint64_t bytes = 0;
        };
        std::map<std::string, CatAgg> by_category;
        for (const auto& row : ledger) {
          CatAgg& agg = by_category[row.category];
          ++agg.keys;
          agg.msgs += row.msgs;
          agg.bytes += row.bytes;
        }
        std::cout << "\nledger (" << ledger.size() << " row(s) from " << ledger_path
                  << ")\n";
        for (const auto& [category, agg] : by_category) {
          std::cout << "  " << category << ": " << agg.keys << " key(s), "
                    << agg.msgs << " wire msg(s), " << agg.bytes << " B\n";
        }
        std::vector<const curb::obs::net::LedgerRow*> top;
        top.reserve(ledger.size());
        for (const auto& row : ledger) top.push_back(&row);
        std::stable_sort(top.begin(), top.end(),
                         [](const auto* a, const auto* b) { return a->msgs > b->msgs; });
        std::cout << "  heaviest keys:\n";
        for (std::size_t i = 0; i < top.size() && i < limit; ++i) {
          std::cout << "    " << top[i]->category << " " << top[i]->key << ": "
                    << top[i]->msgs << " msg(s), " << top[i]->bytes << " B\n";
        }
      }
    }
    for (const auto& rc : rounds) {
      if (rc.exceeds) return kExitFinding;
    }
    return kExitOk;
  }
  if (command == "diff") {
    if (paths.size() != 2) usage(argv[0]);
    const curb::prof::BenchEntry base = curb::obs::bench_entry(load(argv[0], paths[0]));
    const curb::prof::BenchEntry cand = curb::obs::bench_entry(load(argv[0], paths[1]));
    const curb::prof::PerfDiffResult diff =
        curb::prof::perf_diff({base}, {cand}, diff_options);
    if (json) {
      curb::prof::write_perf_diff_json(diff, std::cout);
    } else {
      curb::prof::write_perf_diff_text(diff, std::cout);
    }
    return diff.regressions() == 0 ? kExitOk : kExitFinding;
  }
  usage(argv[0]);
}
