// curb-sim: command-line experiment runner for the Curb control plane.
//
//   curb-sim [options]
//     --topology internet2|random   (default internet2)
//     --controllers N --switches M  (random topology dimensions, default 8/16)
//     --seed S                      (default 42)
//     --f F                         (default 1; group size 3f+1)
//     --engine pbft|hotstuff        (default pbft)
//     --rounds R                    (default 5)
//     --load L                      (PKT-INs per switch per round, default 1)
//     --parallel 0|1                (default 1)
//     --capacity C                  (controller capacity, default 12)
//     --dcs MS                      (D_c,s in ms; 0 disables, default 14)
//     --solver dense|heuristic      (OP() backend, default dense; dense is
//                                    the exact, byte-stable solver, heuristic
//                                    trades the optimality proof for
//                                    millisecond solves. The heuristic finds
//                                    no assignment on the default capacity-12
//                                    instance and exits 1: use --capacity 16)
//     --overhead MS                 (per-message processing overhead, default 0)
//     --reassign                    (run RE-ASS probe rounds instead of PKT-IN)
//     --csv                         (machine-readable output)
//     --trace FILE                  (Chrome trace_event JSON; open in Perfetto)
//     --trace-jsonl FILE            (span dump, one JSON object per line)
//     --metrics-out FILE            (metrics registry snapshot, JSON)
//     --metrics-csv FILE            (metrics registry snapshot, CSV)
//     --phase-report                (per-phase latency breakdown after the run;
//                                    implies tracing, see curb-trace for more)
//     --link-matrix FILE            (per-link telemetry matrix, JSON: msgs/
//                                    bytes/dups/drops/utilization per (src,dst))
//     --link-csv FILE               (the same matrix as CSV)
//     --link-dot FILE               (Graphviz heatmap of per-link bytes)
//     --ledger-out FILE             (message-complexity ledger, JSONL: wire
//                                    msgs/bytes per (category, transaction
//                                    join key); join with curb-trace
//                                    complexity --ledger)
//     --ts-out FILE                 (windowed telemetry stream, one JSON object
//                                    per closed window; tail with curb-watch)
//     --ts-window MS                (telemetry window width in virtual ms;
//                                    default 100 when telemetry is on)
//     --ts-retention N              (closed windows kept in memory, default 64)
//     --slo RULES                   (';'-separated SLO watchdog rules, e.g.
//                                    "p99(core.request_latency_us) < 80ms over 5";
//                                    a breach stops the run, exit code 3)
//     --slo-out FILE                (machine-readable breach report, JSON)
//     --fault SPEC                  (deterministic fault injection, e.g.
//                                    "drop(p=0.05,cat=REPLY);crash(node=ctrl1,at=500)")
//     --fault-seed S                (fault schedule seed, default 1; same
//                                    (seed, spec) reproduces the same run)
//     --prof FILE                   (host-time profile, collapsed-stack format;
//                                    feed into flamegraph.pl or curb-prof report)
//     --prof-chrome FILE            (host-time profile as Chrome trace JSON)
//     --mem-out FILE                (per-tag memory profile JSON; feed into
//                                    curb-prof mem-report / mem-diff)
//     --mem-folded FILE             (collapsed-stack memory flamegraph, bytes
//                                    per attribution frame; implies --prof-style
//                                    profiler installation)
//     --help                        (this text plus the CURB_* env var table)
//
// Exit codes (curb/core/exit_codes.hpp): 0 ok, 1 run/output failure, 2 usage,
// 3 SLO watchdog breach.
//
// CURB_* environment variables (see --help for the full table) are applied
// first; command-line flags override them.
//
// Example: curb-sim --engine hotstuff --rounds 10 --load 3 --csv
// Example: curb-sim --rounds 5 --trace t.json --metrics-out m.json
// Example: curb-sim --rounds 5 --fault "delay(p=0.3,min=20,max=120,src=ctrl1)"
// Example: curb-sim --rounds 20 --ts-out ts.jsonl --slo 'rate(bft.view_changes) == 0'

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "curb/core/env.hpp"
#include "curb/core/exit_codes.hpp"
#include "curb/core/simulation.hpp"
#include "curb/obs/res/account.hpp"
#include "curb/obs/res/report.hpp"
#include "curb/fault/spec.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/report.hpp"
#include "curb/obs/slo.hpp"
#include "curb/prof/export.hpp"
#include "curb/prof/profiler.hpp"

#include <iostream>

namespace {

struct CliOptions {
  std::string topology = "internet2";
  std::size_t controllers = 8;
  std::size_t switches = 16;
  std::uint64_t seed = 42;
  std::size_t f = 1;
  std::string engine = "pbft";
  std::size_t rounds = 5;
  std::size_t load = 1;
  bool parallel = true;
  double capacity = 12.0;
  double dcs_ms = 14.0;
  std::string solver;  // empty: CURB_SOLVER or the dense default
  double overhead_ms = 0.0;
  bool reassign = false;
  bool csv = false;
  std::string trace_file;
  std::string trace_jsonl_file;
  std::string metrics_json_file;
  std::string metrics_csv_file;
  bool phase_report = false;
  std::string link_matrix_file;
  std::string link_csv_file;
  std::string link_dot_file;
  std::string ledger_out_file;
  std::string ts_out;
  std::optional<double> ts_window_ms;
  std::optional<std::size_t> ts_retention;
  std::string slo_rules;
  std::string slo_out;
  std::string fault_spec;
  std::optional<std::uint64_t> fault_seed;
  std::string prof_file;
  std::string prof_chrome_file;
  std::string mem_out_file;
  std::string mem_folded_file;

  [[nodiscard]] bool profiling() const {
    // A memory flamegraph needs the attribution tree, so --mem-folded
    // installs the profiler too.
    return !prof_file.empty() || !prof_chrome_file.empty() ||
           !mem_folded_file.empty();
  }

  [[nodiscard]] bool observability() const {
    return phase_report || !trace_file.empty() || !trace_jsonl_file.empty() ||
           !metrics_json_file.empty() || !metrics_csv_file.empty();
  }
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--topology internet2|random] [--controllers N]\n"
               "          [--switches M] [--seed S] [--f F] [--engine pbft|hotstuff]\n"
               "          [--rounds R] [--load L] [--parallel 0|1] [--capacity C]\n"
               "          [--dcs MS] [--solver dense|heuristic]\n"
               "          [--overhead MS] [--reassign] [--csv]\n"
               "          [--trace FILE] [--trace-jsonl FILE]\n"
               "          [--metrics-out FILE] [--metrics-csv FILE] [--phase-report]\n"
               "          [--link-matrix FILE] [--link-csv FILE] [--link-dot FILE]\n"
               "          [--ledger-out FILE]\n"
               "          [--ts-out FILE] [--ts-window MS] [--ts-retention N]\n"
               "          [--slo RULES] [--slo-out FILE]\n"
               "          [--fault SPEC] [--fault-seed S]\n"
               "          [--prof FILE] [--prof-chrome FILE]\n"
               "          [--mem-out FILE] [--mem-folded FILE] [--help]\n"
               "\n"
               "environment (applied first; flags override; the bench binaries\n"
               "honour the same variables):\n",
               argv0);
  for (const curb::core::EnvVar& var : curb::core::curb_env_vars()) {
    std::fprintf(out, "  %-18s %-24s %s\n", var.name, var.value_hint,
                 var.description);
  }
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::exit(curb::core::kExitUsage);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--topology") opts.topology = value();
    else if (arg == "--controllers") opts.controllers = std::strtoull(value(), nullptr, 10);
    else if (arg == "--switches") opts.switches = std::strtoull(value(), nullptr, 10);
    else if (arg == "--seed") opts.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--f") opts.f = std::strtoull(value(), nullptr, 10);
    else if (arg == "--engine") opts.engine = value();
    else if (arg == "--rounds") opts.rounds = std::strtoull(value(), nullptr, 10);
    else if (arg == "--load") opts.load = std::strtoull(value(), nullptr, 10);
    else if (arg == "--parallel") opts.parallel = std::strtol(value(), nullptr, 10) != 0;
    else if (arg == "--capacity") opts.capacity = std::strtod(value(), nullptr);
    else if (arg == "--dcs") opts.dcs_ms = std::strtod(value(), nullptr);
    else if (arg == "--solver") opts.solver = value();
    else if (arg == "--overhead") opts.overhead_ms = std::strtod(value(), nullptr);
    else if (arg == "--reassign") opts.reassign = true;
    else if (arg == "--csv") opts.csv = true;
    else if (arg == "--trace") opts.trace_file = value();
    else if (arg == "--trace-jsonl") opts.trace_jsonl_file = value();
    else if (arg == "--metrics-out") opts.metrics_json_file = value();
    else if (arg == "--metrics-csv") opts.metrics_csv_file = value();
    else if (arg == "--phase-report") opts.phase_report = true;
    else if (arg == "--link-matrix") opts.link_matrix_file = value();
    else if (arg == "--link-csv") opts.link_csv_file = value();
    else if (arg == "--link-dot") opts.link_dot_file = value();
    else if (arg == "--ledger-out") opts.ledger_out_file = value();
    else if (arg == "--ts-out") opts.ts_out = value();
    else if (arg == "--ts-window") opts.ts_window_ms = std::strtod(value(), nullptr);
    else if (arg == "--ts-retention") opts.ts_retention = std::strtoull(value(), nullptr, 10);
    else if (arg == "--slo") opts.slo_rules = value();
    else if (arg == "--slo-out") opts.slo_out = value();
    else if (arg == "--fault") opts.fault_spec = value();
    else if (arg == "--fault-seed") opts.fault_seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--prof") opts.prof_file = value();
    else if (arg == "--prof-chrome") opts.prof_chrome_file = value();
    else if (arg == "--mem-out") opts.mem_out_file = value();
    else if (arg == "--mem-folded") opts.mem_folded_file = value();
    else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(curb::core::kExitOk);
    }
    else usage(argv[0]);
  }
  return opts;
}

/// Default an unset CLI path from its environment variable.
void env_default(std::string& field, const char* var) {
  if (field.empty()) {
    if (const auto value = curb::core::env_get(var)) field = *value;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli = parse(argc, argv);
  // Output-path options without a dedicated CurbOptions field fall back to
  // their env vars so curb-sim honours the whole documented table.
  env_default(cli.trace_file, "CURB_TRACE");
  env_default(cli.trace_jsonl_file, "CURB_TRACE_JSONL");
  env_default(cli.metrics_json_file, "CURB_METRICS_OUT");
  env_default(cli.metrics_csv_file, "CURB_METRICS_CSV");
  env_default(cli.link_matrix_file, "CURB_LINK_MATRIX");
  env_default(cli.link_csv_file, "CURB_LINK_CSV");
  env_default(cli.link_dot_file, "CURB_LINK_DOT");
  env_default(cli.ledger_out_file, "CURB_LEDGER_OUT");
  env_default(cli.slo_out, "CURB_SLO_OUT");
  env_default(cli.prof_file, "CURB_PROF");
  env_default(cli.prof_chrome_file, "CURB_PROF_CHROME");
  env_default(cli.mem_out_file, "CURB_MEM_OUT");
  env_default(cli.mem_folded_file, "CURB_MEM_FOLDED");
  if ((!cli.mem_out_file.empty() || !cli.mem_folded_file.empty()) &&
      !curb::obs::res::enabled()) {
    // The accountant latches at the process's first allocation (before main),
    // so a bare --mem-out flag is too late to turn it on: only the
    // environment can. Warn instead of writing an all-zero profile.
    std::fprintf(stderr,
                 "curb-sim: memory accounting is off — set CURB_MEM_ACCOUNT=1 "
                 "(or CURB_MEM_OUT/CURB_MEM_FOLDED) in the environment\n");
  }

  curb::core::CurbOptions options;
  // Environment first, explicit flags override.
  std::string env_error;
  if (!curb::core::apply_env_to_options(options, &env_error)) {
    std::fprintf(stderr, "curb-sim: %s\n", env_error.c_str());
    return curb::core::kExitUsage;
  }
  options.f = cli.f;
  options.seed = cli.seed;
  options.parallel = cli.parallel;
  options.controller_capacity = cli.capacity;
  options.max_cs_delay_ms =
      cli.dcs_ms > 0 ? cli.dcs_ms : curb::opt::CapInstance::kNoLimit;
  if (!cli.solver.empty()) {
    if (const auto backend = curb::opt::parse_cap_solver_backend(cli.solver)) {
      options.op_solver = *backend;
    } else {
      std::fprintf(stderr, "curb-sim: unknown --solver '%s'\n", cli.solver.c_str());
      usage(argv[0]);
    }
  }
  options.link_model.per_message_overhead =
      curb::sim::SimTime::from_seconds_f(cli.overhead_ms / 1000.0);
  options.reass_always_solve = cli.reassign;
  options.observability = cli.observability();
  // Link exports only need the counters, not the full observatory.
  if (!cli.link_matrix_file.empty() || !cli.link_csv_file.empty() ||
      !cli.link_dot_file.empty()) {
    options.link_telemetry = true;
  }
  if (!cli.ledger_out_file.empty()) options.msg_ledger = true;
  if (!cli.fault_spec.empty()) options.fault_spec = cli.fault_spec;
  if (cli.fault_seed) options.fault_seed = *cli.fault_seed;
  if (!cli.ts_out.empty()) options.ts_out = cli.ts_out;
  if (cli.ts_window_ms) {
    if (!(*cli.ts_window_ms > 0.0)) {
      std::fprintf(stderr, "curb-sim: --ts-window wants ms > 0\n");
      return curb::core::kExitUsage;
    }
    options.ts_window = curb::sim::SimTime::micros(
        static_cast<std::int64_t>(std::llround(*cli.ts_window_ms * 1000.0)));
  }
  if (cli.ts_retention) options.ts_retention = *cli.ts_retention;
  if (!cli.slo_rules.empty()) options.slo_rules = cli.slo_rules;
  // --ts-out without a width still wants telemetry (mirrors CURB_TS_OUT).
  if (!options.ts_out.empty() && options.ts_window <= curb::sim::SimTime::zero()) {
    options.ts_window = curb::sim::SimTime::millis(100);
  }
  if (cli.engine == "hotstuff") {
    options.consensus_engine = curb::bft::ConsensusEngine::kHotstuff;
  } else if (cli.engine != "pbft") {
    usage(argv[0]);
  }

  if (!options.fault_spec.empty()) {
    try {
      (void)curb::fault::FaultPlan::parse(options.fault_spec, options.fault_seed);
    } catch (const curb::fault::SpecError& e) {
      std::fprintf(stderr, "curb-sim: bad --fault spec: %s\n", e.what());
      return curb::core::kExitUsage;
    }
  }
  if (!options.slo_rules.empty()) {
    try {
      (void)curb::obs::SloRuleSet::parse(options.slo_rules);
    } catch (const curb::obs::SloError& e) {
      std::fprintf(stderr, "curb-sim: %s\n", e.what());
      return curb::core::kExitUsage;
    }
  }

  // Host-time profiling: installed before the simulation is built so setup
  // (keygen, topology, genesis) is attributed too. Host time never touches
  // the virtual clock, so --prof cannot change the run's outputs.
  curb::prof::Profiler profiler;
  curb::prof::StopWatch wall;
  if (cli.profiling()) curb::prof::set_thread_profiler(&profiler);

  auto topology = cli.topology == "random"
                      ? curb::net::random_geo_topology(cli.controllers, cli.switches,
                                                       cli.seed)
                      : curb::net::internet2();
  if (cli.topology != "random" && cli.topology != "internet2") usage(argv[0]);

  std::optional<curb::core::CurbSimulation> sim_storage;
  try {
    sim_storage.emplace(std::move(topology), options,
                        curb::core::CurbSimulation::DeferInit{});
  } catch (const std::exception& e) {
    // Unopenable --ts-out, a too-small topology, and the like: no network
    // exists yet, nothing to flush.
    std::fprintf(stderr, "curb-sim: %s\n", e.what());
    return curb::core::kExitFinding;
  }
  curb::core::CurbSimulation& sim = *sim_storage;

  // Every requested output is written through here, on every exit path —
  // an aborted run (infeasible assignment, SLO breach) still flushes and
  // closes its metrics/telemetry files, truncated to what actually ran.
  auto flush_outputs = [&]() -> bool {
    bool ok = true;
    auto check = [&ok](bool wrote, const std::string& path) {
      if (!wrote) {
        std::fprintf(stderr, "curb-sim: cannot write %s\n", path.c_str());
        ok = false;
      }
    };
    sim.network().finalize_telemetry();
    if (curb::obs::SloEngine* slo = sim.network().slo(); slo != nullptr) {
      if (!cli.slo_out.empty()) {
        std::ofstream out{cli.slo_out, std::ios::binary | std::ios::trunc};
        if (out) {
          slo->write_report_json(out);
        } else {
          check(false, cli.slo_out);
        }
      }
      if (slo->breached()) {
        std::fprintf(stderr, "curb-sim: %zu SLO breach(es):\n",
                     slo->breaches().size());
        std::ostringstream text;
        slo->write_report_text(text);
        std::fputs(text.str().c_str(), stderr);
      }
    }
    if (const curb::obs::net::LinkStats* links = sim.network().link_stats();
        links != nullptr) {
      const curb::obs::net::NodeNameFn names = sim.network().link_node_names();
      curb::obs::net::LinkReportOptions report;
      report.bandwidth_bps = options.link_model.bandwidth_bps;
      report.elapsed_s = sim.network().simulator().now().as_seconds_f();
      if (!cli.link_matrix_file.empty()) {
        check(curb::obs::net::export_link_matrix_json(*links, names, report,
                                                      cli.link_matrix_file),
              cli.link_matrix_file);
      }
      if (!cli.link_csv_file.empty()) {
        check(curb::obs::net::export_link_matrix_csv(*links, names, report,
                                                     cli.link_csv_file),
              cli.link_csv_file);
      }
      if (!cli.link_dot_file.empty()) {
        check(curb::obs::net::export_link_dot(*links, names, report,
                                              cli.link_dot_file),
              cli.link_dot_file);
      }
    }
    if (const curb::obs::net::MsgLedger* ledger = sim.network().msg_ledger();
        ledger != nullptr && !cli.ledger_out_file.empty()) {
      check(curb::obs::net::export_ledger_jsonl(*ledger, cli.ledger_out_file),
            cli.ledger_out_file);
    }
    curb::obs::Observatory* obsy = sim.network().observatory();
    if (obsy == nullptr) return ok;
    sim.network().snapshot_runtime_metrics();
    if (!cli.trace_file.empty()) {
      check(curb::obs::export_chrome_trace(obsy->tracer, &obsy->metrics, cli.trace_file),
            cli.trace_file);
    }
    if (!cli.trace_jsonl_file.empty()) {
      check(curb::obs::export_spans_jsonl(obsy->tracer, cli.trace_jsonl_file),
            cli.trace_jsonl_file);
    }
    if (!cli.metrics_json_file.empty()) {
      check(curb::obs::export_metrics_json(obsy->metrics, cli.metrics_json_file),
            cli.metrics_json_file);
    }
    if (!cli.metrics_csv_file.empty()) {
      check(curb::obs::export_metrics_csv(obsy->metrics, cli.metrics_csv_file),
            cli.metrics_csv_file);
    }
    if (cli.phase_report) {
      std::printf("\n");
      curb::obs::write_report_text(curb::obs::TraceAnalysis::from_tracer(obsy->tracer),
                                   std::cout);
    }
    return ok;
  };

  // OP() throws when no feasible initial assignment exists — easy to hit
  // with --topology random at low controller counts, or --solver heuristic
  // on the marginally-feasible default Internet2 instance (the heuristic
  // has no optimality proof and can miss groupings the dense backend
  // finds). Surface it as a clean error, not an abort — and still flush the
  // requested outputs from the constructed network.
  try {
    sim.initialize();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curb-sim: %s\n", e.what());
    (void)flush_outputs();
    return curb::core::kExitFinding;
  }

  const auto& state = sim.network().genesis_state();
  if (!cli.csv) {
    std::printf("curb-sim: %zu controllers, %zu switches, %zu groups, engine=%s\n",
                sim.network().num_controllers(), sim.network().num_switches(),
                state.groups().size(), cli.engine.c_str());
    std::printf("%-8s%-10s%-10s%-14s%-12s%-12s\n", "round", "issued", "served",
                "latency_ms", "tps", "messages");
  } else {
    std::printf("round,issued,served,latency_ms,tps,messages\n");
  }

  bool watchdog_fired = false;
  for (std::size_t round = 1; round <= cli.rounds; ++round) {
    const curb::core::RoundMetrics m =
        cli.reassign ? sim.run_reassignment_round(sim.active_switches())
                     : sim.run_packet_in_round(cli.load);
    if (cli.csv) {
      std::printf("%zu,%zu,%zu,%.3f,%.3f,%llu\n", round, m.issued, m.accepted,
                  m.mean_latency_ms, m.throughput_tps,
                  static_cast<unsigned long long>(m.messages));
    } else {
      std::printf("%-8zu%-10zu%-10zu%-14.1f%-12.1f%-12llu\n", round, m.issued,
                  m.accepted, m.mean_latency_ms, m.throughput_tps,
                  static_cast<unsigned long long>(m.messages));
    }
    // Watchdog: an SLO breach aborts the remaining rounds. Outputs are still
    // flushed below, so the breach report and partial telemetry survive.
    if (curb::obs::SloEngine* slo = sim.network().slo();
        slo != nullptr && slo->breached()) {
      watchdog_fired = true;
      std::fprintf(stderr, "curb-sim: SLO watchdog fired after round %zu\n", round);
      break;
    }
  }
  if (!cli.csv && !watchdog_fired) {
    std::printf("\nchain height %llu, consistent: %s, no fork: %s, "
                "total messages %llu\n",
                static_cast<unsigned long long>(sim.chain_height()),
                sim.chains_consistent() ? "yes" : "NO",
                sim.chains_prefix_consistent() ? "yes" : "NO",
                static_cast<unsigned long long>(sim.total_messages()));
  }

  const bool outputs_ok = flush_outputs();

  if (cli.profiling()) {
    curb::prof::set_thread_profiler(nullptr);
    bool ok = true;
    std::string written;
    if (!cli.prof_file.empty()) {
      if (curb::prof::export_collapsed(profiler, cli.prof_file)) {
        written = cli.prof_file;
      } else {
        std::fprintf(stderr, "curb-sim: cannot write %s\n", cli.prof_file.c_str());
        ok = false;
      }
    }
    if (!cli.prof_chrome_file.empty()) {
      if (curb::prof::export_chrome_profile(profiler, cli.prof_chrome_file)) {
        if (!written.empty()) written += ", ";
        written += cli.prof_chrome_file;
      } else {
        std::fprintf(stderr, "curb-sim: cannot write %s\n",
                     cli.prof_chrome_file.c_str());
        ok = false;
      }
    }
    const double wall_s = wall.elapsed_ms() / 1000.0;
    const double events = static_cast<double>(sim.network().simulator().events_executed());
    std::fprintf(stderr, "host: wall=%.2fs events/s=%.0f profile written to %s\n",
                 wall_s, wall_s > 0.0 ? events / wall_s : 0.0,
                 written.empty() ? "(none)" : written.c_str());
    if (!ok) return curb::core::kExitFinding;
  }

  if (curb::obs::res::enabled()) {
    const curb::obs::res::MemSnapshot snap = curb::obs::res::snapshot();
    bool ok = true;
    if (!cli.mem_out_file.empty() &&
        !curb::obs::res::export_mem_profile(snap, cli.mem_out_file)) {
      std::fprintf(stderr, "curb-sim: cannot write %s\n", cli.mem_out_file.c_str());
      ok = false;
    }
    if (!cli.mem_folded_file.empty() &&
        !curb::obs::res::export_mem_collapsed(
            profiler, curb::obs::res::frame_allocations(), cli.mem_folded_file)) {
      std::fprintf(stderr, "curb-sim: cannot write %s\n",
                   cli.mem_folded_file.c_str());
      ok = false;
    }
    const double denom = snap.total.alloc_bytes > 0
                             ? static_cast<double>(snap.total.alloc_bytes)
                             : 1.0;
    std::fprintf(stderr, "mem: alloc=%.1fMiB peak=%.1fMiB tagged=%.1f%%\n",
                 static_cast<double>(snap.total.alloc_bytes) / (1024.0 * 1024.0),
                 static_cast<double>(snap.total.peak_live_bytes) / (1024.0 * 1024.0),
                 100.0 * static_cast<double>(snap.tagged_alloc_bytes()) / denom);
    if (!ok) return curb::core::kExitFinding;
  }

  if (watchdog_fired) return curb::core::kExitSloBreach;
  if (!outputs_ok) return curb::core::kExitFinding;

  // Clean runs must end fully converged (equal tips). A faulted run may
  // legitimately stop with live controllers lagging (deliveries still in
  // flight) or crashed without recovery, so only a genuine fork — diverging
  // blocks at a common height — fails it.
  const bool ok_chains = options.fault_spec.empty() ? sim.chains_consistent()
                                                    : sim.chains_prefix_consistent();
  return ok_chains ? curb::core::kExitOk : curb::core::kExitFinding;
}
