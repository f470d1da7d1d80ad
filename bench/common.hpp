#pragma once

// Shared helpers for the figure-reproduction benchmark binaries. Each binary
// regenerates one table/figure from the paper's evaluation (Section IV),
// printing the same series the figure plots. Absolute values depend on the
// simulated substrate; the shapes are the reproduction target (see
// EXPERIMENTS.md).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "curb/core/network.hpp"
#include "curb/core/options.hpp"
#include "curb/core/run_config.hpp"
#include "curb/core/run_output.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/report.hpp"
#include "curb/obs/res/account.hpp"
#include "curb/prof/json.hpp"
#include "curb/prof/profiler.hpp"
#include "curb/sim/stats.hpp"

namespace curb::bench {

/// The bench run's configuration: the paper-calibrated protocol options
/// below, then every CURB_* variable (curb::core::run_options(), listed by
/// `curb-sim --help`). Read once; a malformed value exits 2. The per-message
/// overhead models the controller-side processing cost of the paper's
/// Python/Ryu/gRPC stack (calibrated so the PKT-IN latency lands in the
/// paper's 200-260 ms band; see EXPERIMENTS.md).
inline const core::RunConfig& bench_config() {
  static const core::RunConfig config = [] {
    core::RunConfig c;
    core::CurbOptions& opts = c.options;
    opts.f = 1;
    opts.max_cs_delay_ms = 14.0;  // every switch keeps >= 6 eligible controllers,
                                  // so removing up to 2 byzantine ones stays feasible
    opts.controller_capacity = 12.0;
    opts.link_model.per_message_overhead = curb::sim::SimTime::millis(15);
    // The end-to-end reply latency in this deployment is ~270 ms; a node is
    // "lazy" when its replies trail the pack but still beat the timeout
    // (paper exp. 3). Between those two lines:
    opts.lazy_threshold = curb::sim::SimTime::millis(350);
    // Reassignment churn transiently delays replies; demand several
    // consecutive misses before accusing a controller (the paper's
    // "application-specific waiting time" policy).
    opts.max_silent_rounds = 3;
    opts.op_time_mode = core::OpTimeMode::kMeasured;
    std::string error;
    if (!core::load_run_config(c, 0, nullptr, error)) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(2);
    }
    return c;
  }();
  return config;
}

/// Options for the protocol benches: Internet2, f = 1, 500 ms timeout, with
/// the CURB_* variables applied (fault plan, solver, telemetry, SLO rules).
inline core::CurbOptions paper_options() { return bench_config().options; }

/// CURB_BENCH_FAST=1 trims the sweeps to the sizes CI can afford.
inline bool fast_mode() { return bench_config().bench_fast; }

/// Writes the files the CURB_* variables ask for. print_header creates it,
/// so a host profile covers the whole run; call write_network with a
/// configuration's network, and the host and memory profiles are written at
/// exit.
inline core::RunOutput& bench_output() {
  static core::RunOutput output{bench_config().out, "bench"};
  return output;
}

void warm_bench_results();

inline void print_header(const std::string& title, const std::string& paper_ref) {
  // Line-buffer stdout so partial results survive a killed run.
  static const bool unbuffered = [] {
    setvbuf(stdout, nullptr, _IOLBF, 0);
    return true;
  }();
  (void)unbuffered;
  (void)bench_output();
  // Birth the results singleton (and its entry StopWatch) now: the first
  // add() otherwise creates it mid-call and reports a ~0 ms first lap.
  warm_bench_results();
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
}

inline void print_row_header(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%-18s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%-18s", "---");
  std::printf("\n");
}

inline void print_cell(double value) { std::printf("%-18.2f", value); }
inline void print_cell(const std::string& value) { std::printf("%-18s", value.c_str()); }
inline void end_row() { std::printf("\n"); }

/// Consolidated machine-readable bench results. Each bench appends one entry
/// per measured configuration; the collected entries are written as a JSON
/// array at process exit to CURB_BENCH_OUT (default BENCH_results.json; set
/// it to the empty string to disable). When the configuration's network ran
/// with observability on, the entry also carries the end-to-end latency
/// stats and the per-phase breakdown from curb-trace analysis.
class BenchResults {
 public:
  /// `extra_json` is an optional raw JSON fragment spliced into the entry
  /// verbatim (e.g. ",\"msg_complexity\":{...}"); it must start with a comma
  /// and contain complete key:value members.
  static void add(const std::string& bench,
                  const std::vector<std::pair<std::string, std::string>>& params,
                  const std::vector<std::pair<std::string, double>>& metrics,
                  core::CurbNetwork* network = nullptr,
                  const std::string& extra_json = "") {
    std::ostringstream entry;
    entry << "{\"bench\":\"" << prof::json_escape(bench) << "\",\"params\":{";
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i > 0) entry << ",";
      entry << "\"" << prof::json_escape(params[i].first) << "\":\""
            << prof::json_escape(params[i].second) << "\"";
    }
    entry << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.3f", metrics[i].second);
      if (i > 0) entry << ",";
      entry << "\"" << prof::json_escape(metrics[i].first) << "\":" << value;
    }
    entry << "}";
    if (!extra_json.empty()) entry << extra_json;
    append_host_section(entry, network);
    append_memory_section(entry, network);
    if (network != nullptr && network->observatory() != nullptr) {
      const obs::TraceAnalysis analysis =
          obs::TraceAnalysis::from_tracer(network->observatory()->tracer);
      entry << ",\"e2e_us\":";
      obs::write_latency_stats_json(analysis.e2e(), entry);
      entry << ",\"phases\":";
      obs::write_phase_breakdown_json(analysis, entry);
      entry << ",\"anomalies\":" << analysis.findings().size();
    }
    if (network != nullptr && network->ts() != nullptr) {
      append_window_series(entry, *network->ts());
    }
    entry << "}";
    instance().entries_.push_back(entry.str());
  }

 private:
  /// Host-time section: wall-clock milliseconds since the previous entry
  /// (always recorded, even with profiling off), the configuration's event
  /// throughput, and — when a profiler is installed — the per-component
  /// share of host time spent since the previous entry. Machine-dependent
  /// by nature; kept in its own section so virtual metrics stay comparable
  /// across hosts (and so perf-diff can hold host.* to looser thresholds).
  ///
  /// events_per_sec divides the network's executed events by the host time
  /// its simulator spent *inside the event loop* (Simulator::host_run_ns),
  /// not by the entry-to-entry wall lap. The wall lap conflates one-off
  /// setup — on fig5-size runs the initial MILP CAP solve used to be ~99%
  /// of it — and was garbage for the first entry (the lap started inside
  /// the first add() call), so the old figure measured the solver, not the
  /// event loop it claims to describe.
  static void append_host_section(std::ostringstream& entry,
                                  core::CurbNetwork* network) {
    const double wall_ms = instance().entry_wall_.lap_ms();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", wall_ms);
    entry << ",\"host\":{\"wall_ms\":" << buf;
    if (network != nullptr && network->simulator().host_run_ns() > 0) {
      const double events =
          static_cast<double>(network->simulator().events_executed());
      const double run_s =
          static_cast<double>(network->simulator().host_run_ns()) / 1e9;
      std::snprintf(buf, sizeof buf, "%.1f", events / run_s);
      entry << ",\"events_per_sec\":" << buf;
    }
    if (const prof::Profiler* profiler = prof::thread_profiler()) {
      auto& previous = instance().component_ns_;
      const std::map<std::string, std::uint64_t> current =
          profiler->exclusive_by_component();
      std::uint64_t delta_total = 0;
      std::map<std::string, std::uint64_t> delta;
      for (const auto& [component, ns] : current) {
        const auto it = previous.find(component);
        const std::uint64_t d = ns - (it != previous.end() ? it->second : 0);
        if (d > 0) delta[component] = d;
        delta_total += d;
      }
      if (delta_total > 0) {
        entry << ",\"components\":[";
        bool first = true;
        for (const auto& [component, ns] : delta) {
          std::snprintf(buf, sizeof buf, "%.2f",
                        100.0 * static_cast<double>(ns) /
                            static_cast<double>(delta_total));
          entry << (first ? "" : ",") << "{\"component\":\""
                << prof::json_escape(component) << "\",\"share_pct\":" << buf << "}";
          first = false;
        }
        entry << "]";
      }
      previous = current;
    }
    entry << "}";
  }

  /// Memory section (only when the allocation accountant is latched on):
  /// bytes/allocations since the previous entry plus the peak live footprint
  /// over that interval (peaks reset per entry so each configuration reports
  /// its own high-water). allocs_per_event and bytes_per_committed_txn are
  /// normalized against *this* entry's network — benches build a fresh
  /// network per configuration, so its lifetime totals are the entry's.
  /// Machine-dependent like host.*: perf-diff holds memory.* to the looser
  /// warn-only thresholds.
  static void append_memory_section(std::ostringstream& entry,
                                    core::CurbNetwork* network) {
    if (!obs::res::enabled()) return;
    const obs::res::MemSnapshot snap = obs::res::snapshot();
    auto& prev = instance().mem_prev_;
    const std::uint64_t alloc_bytes = snap.total.alloc_bytes - prev.alloc_bytes;
    const std::uint64_t allocs = snap.total.allocs - prev.allocs;
    prev = snap.total;
    entry << ",\"memory\":{\"peak_live_bytes\":" << snap.total.peak_live_bytes
          << ",\"alloc_bytes\":" << alloc_bytes << ",\"allocs\":" << allocs;
    if (network != nullptr) {
      const auto events = network->simulator().events_executed();
      if (events > 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2f",
                      static_cast<double>(allocs) / static_cast<double>(events));
        entry << ",\"allocs_per_event\":" << buf;
      }
      if (network->num_controllers() > 0 && network->controller(0).has_blockchain()) {
        const std::size_t txns =
            network->controller(0).blockchain().total_transactions();
        if (txns > 0) {
          char buf[64];
          std::snprintf(buf, sizeof buf, "%.1f",
                        static_cast<double>(alloc_bytes) /
                            static_cast<double>(txns));
          entry << ",\"bytes_per_committed_txn\":" << buf;
        }
      }
    }
    entry << "}";
    obs::res::reset_peaks();
  }

  /// Windowed-telemetry section: per-series summary over the retained ring
  /// (bounded by ts_retention, so entries stay small no matter how long the
  /// configuration ran). Full resolution lives in the CURB_TS_OUT JSONL.
  static void append_window_series(std::ostringstream& entry,
                                   const obs::TsCollector& ts) {
    entry << ",\"window_series\":{\"window_us\":" << ts.options().window.as_micros()
          << ",\"windows_closed\":" << ts.windows_closed()
          << ",\"retained\":" << ts.windows().size() << ",\"series\":{";
    // Per-series stats across retained windows (sorted: map iteration).
    struct Stats {
      const char* kind = "";
      std::size_t windows = 0;
      double sum = 0.0, max = 0.0, last = 0.0;
    };
    std::map<std::string, Stats> stats;
    for (const auto& window : ts.windows()) {
      for (const auto& [key, value] : window.series) {
        Stats& s = stats[key];
        s.kind = obs::to_string(value.kind);
        ++s.windows;
        const double v = value.kind == obs::TsValue::Kind::kHist ? value.p99
                                                                 : value.value;
        s.sum += v;
        s.max = s.windows == 1 ? v : std::max(s.max, v);
        s.last = v;
      }
    }
    bool first = true;
    for (const auto& [key, s] : stats) {
      entry << (first ? "" : ",") << "\"" << prof::json_escape(key)
            << "\":{\"kind\":\"" << s.kind << "\",\"windows\":" << s.windows
            << ",\"mean\":" << prof::json_double(s.sum / static_cast<double>(s.windows))
            << ",\"max\":" << prof::json_double(s.max)
            << ",\"last\":" << prof::json_double(s.last) << "}";
      first = false;
    }
    entry << "}}";
  }

  friend void warm_bench_results();

  BenchResults() = default;
  ~BenchResults() {
    const std::string path = bench_config().out.bench.value_or("BENCH_results.json");
    if (entries_.empty() || path.empty()) return;
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
  }

  static BenchResults& instance() {
    static BenchResults results;
    return results;
  }

  std::vector<std::string> entries_;
  prof::StopWatch entry_wall_;
  std::map<std::string, std::uint64_t> component_ns_;
  obs::res::TagCounters mem_prev_;
};

inline void warm_bench_results() { (void)BenchResults::instance(); }

}  // namespace curb::bench
