#include "curb/core/env.hpp"

#include <cmath>
#include <cstdlib>
#include <exception>

#include "curb/obs/slo.hpp"
#include "curb/opt/solver.hpp"

namespace curb::core {

const std::vector<EnvVar>& curb_env_vars() {
  static const std::vector<EnvVar> vars = {
      {"CURB_SOLVER", "dense|heuristic",
       "OP() solver backend for every assignment solve"},
      {"CURB_FAULT", "spec", "fault-injection plan (curb::fault spec grammar)"},
      {"CURB_FAULT_SEED", "u64", "seed for the fault plan's own RNG stream"},
      {"CURB_TS_OUT", "path", "stream windowed telemetry to this JSONL file"},
      {"CURB_TS_WINDOW", "ms",
       "telemetry window width in virtual ms (enables the collector)"},
      {"CURB_TS_RETENTION", "n", "closed windows kept in memory (default 64)"},
      {"CURB_SLO", "rules",
       "SLO watchdog rules, ';'-separated (curb::obs::slo grammar)"},
      {"CURB_SLO_OUT", "path",
       "write the machine-readable SLO breach report here"},
      {"CURB_TRACE", "path", "write a Chrome-trace rendering of the run"},
      {"CURB_TRACE_JSONL", "path", "write the span stream as JSONL"},
      {"CURB_METRICS_OUT", "path", "write a metrics snapshot as JSON"},
      {"CURB_METRICS_CSV", "path", "write a metrics snapshot as CSV"},
      {"CURB_LINK_MATRIX", "path", "write the per-link telemetry matrix as JSON"},
      {"CURB_LINK_CSV", "path", "write the per-link telemetry matrix as CSV"},
      {"CURB_LINK_DOT", "path", "write a Graphviz heatmap of per-link bytes"},
      {"CURB_LEDGER_OUT", "path",
       "write the message-complexity ledger as JSONL (wire msgs per "
       "transaction join key; enables the ledger)"},
      {"CURB_BENCH_OUT", "path",
       "consolidated bench results JSON (default BENCH_results.json; empty "
       "disables)"},
      {"CURB_PROF", "path", "collapsed-stack host profile (flamegraph.pl)"},
      {"CURB_PROF_CHROME", "path", "Chrome-trace host profile"},
      {"CURB_MEM_ACCOUNT", "0|1",
       "latch the tagged allocation accountant on (curb::obs::res)"},
      {"CURB_MEM_OUT", "path",
       "write the per-tag memory profile JSON (implies CURB_MEM_ACCOUNT=1)"},
      {"CURB_MEM_FOLDED", "path",
       "collapsed-stack memory flamegraph, bytes per frame (implies "
       "CURB_MEM_ACCOUNT=1)"},
  };
  return vars;
}

std::optional<std::string> env_get(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string{value};
}

bool env_observability_requested() {
  return env_get("CURB_TRACE").has_value() ||
         env_get("CURB_TRACE_JSONL").has_value() ||
         env_get("CURB_METRICS_OUT").has_value() ||
         env_get("CURB_METRICS_CSV").has_value() ||
         env_get("CURB_BENCH_OUT").has_value() ||
         env_get("CURB_TS_OUT").has_value() ||
         env_get("CURB_TS_WINDOW").has_value() ||
         env_get("CURB_SLO").has_value() ||
         env_get("CURB_LINK_MATRIX").has_value() ||
         env_get("CURB_LINK_CSV").has_value() ||
         env_get("CURB_LINK_DOT").has_value();
}

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  // stoull accepts "-7" by wrapping it to 2^64-7 — require plain digits.
  if (text.empty() || (text[0] < '0' || text[0] > '9')) return false;
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_ms(const std::string& text, sim::SimTime& out) {
  try {
    std::size_t used = 0;
    const double ms = std::stod(text, &used);
    if (used != text.size() || !(ms > 0.0)) return false;
    out = sim::SimTime::micros(static_cast<std::int64_t>(std::llround(ms * 1000.0)));
    return out > sim::SimTime::zero();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

bool apply_env_to_options(CurbOptions& opts, std::string* error) {
  if (const auto name = env_get("CURB_SOLVER")) {
    if (const auto backend = opt::parse_cap_solver_backend(*name)) {
      opts.op_solver = *backend;
    } else {
      return fail(error, "unknown CURB_SOLVER '" + *name +
                             "' (want dense|heuristic)");
    }
  }
  if (const auto spec = env_get("CURB_FAULT")) opts.fault_spec = *spec;
  if (const auto seed = env_get("CURB_FAULT_SEED")) {
    std::uint64_t value = 0;
    if (!parse_u64(*seed, value)) {
      return fail(error, "bad CURB_FAULT_SEED '" + *seed + "' (want u64)");
    }
    opts.fault_seed = value;
  }
  if (const auto path = env_get("CURB_TS_OUT")) opts.ts_out = *path;
  if (const auto window = env_get("CURB_TS_WINDOW")) {
    if (!parse_ms(*window, opts.ts_window)) {
      return fail(error, "bad CURB_TS_WINDOW '" + *window + "' (want ms > 0)");
    }
  }
  if (const auto retention = env_get("CURB_TS_RETENTION")) {
    std::uint64_t value = 0;
    if (!parse_u64(*retention, value) || value == 0) {
      return fail(error, "bad CURB_TS_RETENTION '" + *retention + "' (want n >= 1)");
    }
    opts.ts_retention = static_cast<std::size_t>(value);
  }
  if (const auto rules = env_get("CURB_SLO")) {
    try {
      // Validate early so a typo'd pipeline fails at startup, not mid-run.
      // A value of only separators/whitespace parses to zero rules — treat
      // that as an error too: the user asked for a watchdog and got none.
      if (obs::SloRuleSet::parse(*rules).rules.empty()) {
        return fail(error, "bad CURB_SLO '" + *rules + "' (contains no rules)");
      }
    } catch (const obs::SloError& e) {
      return fail(error, "bad CURB_SLO: " + std::string{e.what()});
    }
    opts.slo_rules = *rules;
  }
  // The ledger env var both names the output file (read by the bench
  // harness / curb-sim) and switches the ledger on.
  if (env_get("CURB_LEDGER_OUT").has_value()) opts.msg_ledger = true;
  // CURB_TS_OUT without a width still wants telemetry: default the window.
  if (!opts.ts_out.empty() && opts.ts_window <= sim::SimTime::zero()) {
    opts.ts_window = sim::SimTime::millis(100);
  }
  return true;
}

}  // namespace curb::core
