// curb-sim: command-line experiment runner for the Curb control plane.
//
//   curb-sim [options]
//
// `curb-sim --help` lists every option. Each is declared once, in
// curb::core::run_options(), as a flag, a CURB_* environment variable or
// both; variables are applied first and flags override them. The defaults
// are the paper's Internet2 deployment: f = 1, capacity 12, D_c,s 14 ms,
// PBFT, 5 rounds of one PKT-IN per switch.
//
// Exit codes (curb/core/exit_codes.hpp): 0 ok, 1 run/output failure, 2 usage,
// 3 SLO watchdog breach.
//
// Example: curb-sim --engine hotstuff --rounds 10 --load 3 --csv
// Example: curb-sim --rounds 5 --trace t.json --metrics-out m.json
// Example: curb-sim --rounds 5 --fault "delay(p=0.3,min=20,max=120,src=ctrl1)"
// Example: curb-sim --rounds 20 --ts-out ts.jsonl --slo 'rate(bft.view_changes) == 0'

#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "curb/core/exit_codes.hpp"
#include "curb/core/run_config.hpp"
#include "curb/core/run_output.hpp"
#include "curb/core/simulation.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/obs/report.hpp"

int main(int argc, char** argv) {
  curb::core::RunConfig config;
  config.options.controller_capacity = 12.0;
  config.options.max_cs_delay_ms = 14.0;
  std::string error;
  if (!curb::core::load_run_config(config, argc, argv, error)) {
    std::fprintf(stderr, "curb-sim: %s\n%s", error.c_str(),
                 curb::core::run_help(argv[0]).c_str());
    return curb::core::kExitUsage;
  }
  if (config.help) {
    std::fputs(curb::core::run_help(argv[0]).c_str(), stdout);
    return curb::core::kExitOk;
  }
  const curb::core::CurbOptions& options = config.options;

  // Constructed before the simulation so a host profile attributes setup
  // (keygen, topology, genesis) too. Host time never touches the virtual
  // clock, so profiling cannot change the run's outputs.
  curb::core::RunOutput output{config.out, "curb-sim"};

  auto topology = config.topology == "random"
                      ? curb::net::random_geo_topology(config.controllers, config.switches,
                                                       options.seed)
                      : curb::net::internet2();
  std::optional<curb::core::CurbSimulation> sim_storage;
  try {
    sim_storage.emplace(std::move(topology), options, curb::core::CurbSimulation::DeferInit{});
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
    const bool ok = output.write_network(sim.network());
    if (const curb::obs::Observatory* obsy = sim.network().observatory();
        obsy != nullptr && config.phase_report) {
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
  if (!config.csv) {
    const std::string engine{curb::bft::to_string(options.consensus_engine)};
    std::printf("curb-sim: %zu controllers, %zu switches, %zu groups, engine=%s\n",
                sim.network().num_controllers(), sim.network().num_switches(),
                state.groups().size(), engine.c_str());
    std::printf("%-8s%-10s%-10s%-14s%-12s%-12s\n", "round", "issued", "served",
                "latency_ms", "tps", "messages");
  } else {
    std::printf("round,issued,served,latency_ms,tps,messages\n");
  }

  bool watchdog_fired = false;
  for (std::size_t round = 1; round <= config.rounds; ++round) {
    // --reassign makes every RE-ASS request solve OP() and probes with them.
    const curb::core::RoundMetrics m =
        options.reass_always_solve ? sim.run_reassignment_round(sim.active_switches())
                                   : sim.run_packet_in_round(config.load);
    if (config.csv) {
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
  if (!config.csv && !watchdog_fired) {
    std::printf("\nchain height %llu, consistent: %s, no fork: %s, "
                "total messages %llu\n",
                static_cast<unsigned long long>(sim.chain_height()),
                sim.chains_consistent() ? "yes" : "NO",
                sim.chains_prefix_consistent() ? "yes" : "NO",
                static_cast<unsigned long long>(sim.total_messages()));
  }

  const bool outputs_ok = flush_outputs();
  if (!output.write_process()) return curb::core::kExitFinding;
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
