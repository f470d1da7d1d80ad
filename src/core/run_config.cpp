#include "curb/core/run_config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "curb/core/parse_number.hpp"
#include "curb/fault/spec.hpp"
#include "curb/obs/slo.hpp"
#include "curb/opt/solver.hpp"

namespace curb::core {
namespace {

/// nullopt when the value was applied; otherwise why it was rejected.
using Verdict = std::optional<std::string>;
// Short aliases keep each table entry on one line: C is the config being
// loaded, S the option's value, and (in the table) O its CurbOptions and P
// its OutputPaths.
using C = RunConfig;
using S = const std::string&;

// The setting a member pointer names, wherever in the config it lives.
template <typename T>
T& field(C& c, T C::*member) {
  return c.*member;
}
template <typename T>
T& field(C& c, T CurbOptions::*member) {
  return c.options.*member;
}
template <typename T>
T& field(C& c, T OutputPaths::*member) {
  return c.out.*member;
}

template <auto Member>
Verdict text(C& c, S value) {
  field(c, Member) = value;
  return std::nullopt;
}

template <auto Member>
Verdict on(C& c, S) {
  field(c, Member) = true;
  return std::nullopt;
}

template <auto Member>
Verdict zero_or_one(C& c, S value) {
  if (value != "0" && value != "1") return "want 0|1";
  field(c, Member) = value == "1";
  return std::nullopt;
}

template <typename T>
Verdict number(S value, T& out) {
  const auto parsed = parse_number<T>(value);
  if (!parsed) return std::is_floating_point_v<T> ? "want a number" : "want an unsigned integer";
  out = *parsed;
  return std::nullopt;
}

template <auto Member>
Verdict num(C& c, S value) {
  return number(value, field(c, Member));
}

Verdict ts_window(C& c, S value) {
  // The upper cap keeps llround in range: 1e15 ms is 30,000 years.
  const auto ms = parse_number<double>(value);
  if (!ms || !(*ms > 0.0) || *ms > 1e15) return "want ms > 0";
  const auto width = sim::SimTime::micros(std::llround(*ms * 1000.0));
  if (width <= sim::SimTime::zero()) return "want ms > 0";
  c.options.ts_window = width;
  return std::nullopt;
}

Verdict ts_retention(C& c, S value) {
  const auto n = parse_number<std::size_t>(value);
  if (!n || *n == 0) return "want n >= 1";
  c.options.ts_retention = *n;
  return std::nullopt;
}

Verdict slo(C& c, S value) {
  // Validated here so a typo'd rule fails at startup, not mid-run. A value
  // of only separators parses to zero rules: the user asked for a watchdog
  // and would get none. An empty value turns the watchdog off.
  if (!value.empty()) {
    try {
      if (obs::SloRuleSet::parse(value).rules.empty()) return "contains no rules";
    } catch (const obs::SloError& e) {
      return e.what();
    }
  }
  c.options.slo_rules = value;
  return std::nullopt;
}

Verdict fault(C& c, S value) {
  try {
    (void)fault::FaultPlan::parse(value);
  } catch (const fault::SpecError& e) {
    return e.what();
  }
  c.options.fault_spec = value;
  return std::nullopt;
}

}  // namespace

const std::vector<RunOption>& run_options() {
  using O = CurbOptions;
  using P = OutputPaths;
  static const std::vector<RunOption> options = {
      {"--topology", nullptr, "internet2|random", "network to run on (default internet2)",
       [](C& c, S v) -> Verdict {
         if (v != "internet2" && v != "random") return "want internet2|random";
         c.topology = v;
         return std::nullopt;
       }},
      {"--controllers", nullptr, "N", "random topology size (default 8)", num<&C::controllers>},
      {"--switches", nullptr, "M", "random topology size (default 16)", num<&C::switches>},
      {"--seed", nullptr, "S", "deployment seed (default 42)", num<&O::seed>},
      {"--f", nullptr, "F", "faults per group of 3f+1 (default 1)", num<&O::f>},
      {"--engine", nullptr, "pbft|hotstuff", "BFT engine of both consensus layers (default pbft)",
       [](C& c, S v) -> Verdict {
         if (v != "pbft" && v != "hotstuff") return "want pbft|hotstuff";
         c.options.consensus_engine =
             v == "pbft" ? bft::ConsensusEngine::kPbft : bft::ConsensusEngine::kHotstuff;
         return std::nullopt;
       }},
      {"--rounds", nullptr, "R", "rounds to run (default 5)", num<&C::rounds>},
      {"--load", nullptr, "L", "PKT-INs per switch per round (default 1)", num<&C::load>},
      {"--parallel", nullptr, "0|1", "parallel consensus (default 1)", zero_or_one<&O::parallel>},
      {"--capacity", nullptr, "C", "controller load capacity (default 12)",
       num<&O::controller_capacity>},
      {"--dcs", nullptr, "MS", "D_c,s cap in ms; 0 disables it (default 14)",
       [](C& c, S v) {
         double ms = 0.0;
         Verdict verdict = number(v, ms);
         if (!verdict) c.options.max_cs_delay_ms = ms > 0 ? ms : opt::CapInstance::kNoLimit;
         return verdict;
       }},
      {"--overhead", nullptr, "MS", "per-message processing overhead in ms (default 0)",
       [](C& c, S v) {
         double ms = 0.0;
         Verdict verdict = number(v, ms);
         auto& overhead = c.options.link_model.per_message_overhead;
         if (!verdict) overhead = sim::SimTime::from_seconds_f(ms / 1000.0);
         return verdict;
       }},
      {"--reassign", nullptr, nullptr, "run RE-ASS probe rounds instead of PKT-IN rounds",
       on<&O::reass_always_solve>},
      {"--csv", nullptr, nullptr, "print the per-round table as CSV", on<&C::csv>},
      {"--phase-report", nullptr, nullptr, "per-phase latency breakdown", on<&C::phase_report>},
      {"--solver", "CURB_SOLVER", "dense|heuristic",
       "OP() backend; dense is exact (default), heuristic misses the capacity-12 instance",
       [](C& c, S v) -> Verdict {
         const auto backend = opt::parse_cap_solver_backend(v);
         if (!backend) return "want dense|heuristic";
         c.options.op_solver = *backend;
         return std::nullopt;
       }},
      {"--fault", "CURB_FAULT", "SPEC", "fault plan, e.g. 'drop(p=0.05,cat=REPLY)'", fault},
      {"--fault-seed", "CURB_FAULT_SEED", "S", "fault plan seed (default 1)", num<&O::fault_seed>},
      {"--ts-out", "CURB_TS_OUT", "FILE", "windowed telemetry, JSONL", text<&O::ts_out>},
      {"--ts-window", "CURB_TS_WINDOW", "MS", "virtual ms per telemetry window (default 100)",
       ts_window},
      {"--ts-retention", "CURB_TS_RETENTION", "N", "windows kept in memory (default 64)",
       ts_retention},
      {"--slo", "CURB_SLO", "RULES", "';'-separated SLO rules; a breach exits 3", slo},
      {"--slo-out", "CURB_SLO_OUT", "FILE", "SLO breach report, JSON", text<&P::slo_report>},
      {"--trace", "CURB_TRACE", "FILE", "Chrome trace with counter tracks", text<&P::trace>},
      {"--trace-jsonl", "CURB_TRACE_JSONL", "FILE", "span dump, JSONL", text<&P::trace_jsonl>},
      {"--metrics-out", "CURB_METRICS_OUT", "FILE", "metrics, JSON", text<&P::metrics_json>},
      {"--metrics-csv", "CURB_METRICS_CSV", "FILE", "metrics, CSV", text<&P::metrics_csv>},
      {"--link-matrix", "CURB_LINK_MATRIX", "FILE", "per-link matrix, JSON", text<&P::link_matrix>},
      {"--link-csv", "CURB_LINK_CSV", "FILE", "per-link matrix, CSV", text<&P::link_csv>},
      {"--link-dot", "CURB_LINK_DOT", "FILE", "per-link bytes, Graphviz", text<&P::link_dot>},
      {"--ledger-out", "CURB_LEDGER_OUT", "FILE", "msgs per transaction, JSONL", text<&P::ledger>},
      {"--prof", "CURB_PROF", "FILE", "host profile, collapsed stacks", text<&P::prof>},
      {"--prof-chrome", "CURB_PROF_CHROME", "FILE", "host profile, Chrome", text<&P::prof_chrome>},
      {"--mem-out", "CURB_MEM_OUT", "FILE", "memory profile, JSON", text<&P::mem_out>},
      {"--mem-folded", "CURB_MEM_FOLDED", "FILE", "memory flamegraph", text<&P::mem_folded>},
      {nullptr, "CURB_MEM_ACCOUNT", "0|1",
       "latch the allocation accountant on before main, as CURB_MEM_OUT and "
       "CURB_MEM_FOLDED do (a flag comes too late)",
       nullptr},
      {nullptr, "CURB_BENCH_OUT", "FILE", "bench results (default BENCH_results.json)",
       text<&P::bench>},
      {nullptr, "CURB_BENCH_FAST", "0|1", "benches: run CI's sweeps", zero_or_one<&C::bench_fast>},
      {"--help", nullptr, nullptr, "print this text and exit", on<&C::help>},
  };
  return options;
}

bool load_run_config(RunConfig& config, int argc, const char* const* argv,
                     std::string& error) {
  const auto apply = [&](const RunOption& option, const char* name, const std::string& value) {
    const Verdict verdict = option.apply(config, value);
    if (verdict) error = "bad " + std::string{name} + " '" + value + "' (" + *verdict + ")";
    return !verdict;
  };
  for (const RunOption& option : run_options()) {
    const char* value = option.env != nullptr ? std::getenv(option.env) : nullptr;
    if (value != nullptr && option.apply != nullptr && !apply(option, option.env, value)) {
      return false;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
    const auto& options = run_options();
    const auto it = std::find_if(options.begin(), options.end(), [&](const RunOption& o) {
      return o.flag != nullptr && arg == o.flag;
    });
    if (it == options.end()) {
      error = "unknown option '" + arg + "'";
      return false;
    }
    if (it->hint != nullptr && i + 1 >= argc) {
      error = arg + " needs a value (" + it->hint + ")";
      return false;
    }
    if (!apply(*it, it->flag, it->hint != nullptr ? argv[++i] : "")) return false;
  }
  // The one place the requested outputs switch on what they read. The
  // network adds the rest: telemetry (ts_out, slo_rules) implies
  // observability, which implies link telemetry.
  const OutputPaths& out = config.out;
  CurbOptions& opts = config.options;
  opts.observability = opts.observability || config.phase_report || !out.trace.empty() ||
                       !out.trace_jsonl.empty() || !out.metrics_json.empty() ||
                       !out.metrics_csv.empty() || (out.bench && !out.bench->empty());
  opts.link_telemetry = opts.link_telemetry || !out.link_matrix.empty() ||
                        !out.link_csv.empty() || !out.link_dot.empty();
  opts.msg_ledger = opts.msg_ledger || !out.ledger.empty();
  return true;
}

std::string run_help(const char* argv0) {
  std::string text = std::string{"usage: "} + argv0 +
                     " [options]\n\n"
                     "Each option is a flag, a CURB_* environment variable, or both. The\n"
                     "variables are applied first and flags override them; the bench\n"
                     "binaries read the variables. Exit codes: 0 ok, 1 run or output\n"
                     "failure, 2 usage, 3 SLO watchdog breach.\n\n";
  const auto pad = [](std::string s, std::size_t width) {
    s.resize(std::max(s.size() + 1, width), ' ');
    return s;
  };
  for (const RunOption& o : run_options()) {
    std::string names = o.flag != nullptr ? o.flag : "";
    if (o.env != nullptr) names += (names.empty() ? "" : ", ") + std::string{o.env};
    text += "  " + pad(names, 36) + pad(o.hint != nullptr ? o.hint : "", 17) + o.help + "\n";
  }
  return text;
}

}  // namespace curb::core
