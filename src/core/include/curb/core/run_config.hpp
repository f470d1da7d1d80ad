#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "curb/core/options.hpp"

namespace curb::core {

/// Files a run writes (curb::core::RunOutput); an empty path is not written.
struct OutputPaths {
  // From the network: SLO report, traces, metrics, link telemetry, ledger.
  std::string slo_report, trace, trace_jsonl, metrics_json, metrics_csv;
  std::string link_matrix, link_csv, link_dot, ledger;
  // From the process: host profile (collapsed, Chrome), memory profile.
  std::string prof, prof_chrome, mem_out, mem_folded;
  /// Consolidated bench results: unset writes the benches' default file,
  /// empty writes none.
  std::optional<std::string> bench;

  bool operator==(const OutputPaths&) const = default;
};

/// One curb-sim or bench run: the deployment, curb-sim's run shape, and the
/// files to write. Callers set their defaults, then load_run_config().
struct RunConfig {
  CurbOptions options;
  std::string topology = "internet2";
  std::size_t controllers = 8, switches = 16;  // random topology size
  std::size_t rounds = 5, load = 1;            // PKT-INs per switch per round
  bool csv = false, phase_report = false, help = false;
  /// Benches trim their sweeps to the sizes CI can afford.
  bool bench_fast = false;
  OutputPaths out;

  bool operator==(const RunConfig&) const = default;
};

/// One run option: a command-line flag, a CURB_* environment variable, or
/// both. Both routes go through the same `apply`, so they accept and reject
/// the same values.
struct RunOption {
  const char* flag;  // nullptr: environment only
  const char* env;   // nullptr: flag only
  const char* hint;  // the value's shape; nullptr: a flag that takes no value
  const char* help;
  /// Parses `value` into `config`. Returns nullopt when it was applied, or
  /// what a well-formed value looks like. Null for a variable read before
  /// main (the allocation accountant's latch), listed here for --help.
  std::optional<std::string> (*apply)(RunConfig& config, const std::string& value);
};

/// Every option, in --help order.
[[nodiscard]] const std::vector<RunOption>& run_options();

/// Applies every set CURB_* variable, then the flags in argv[1..argc), which
/// override them, then derives the settings the requested outputs imply
/// (observability, link telemetry, the message ledger). Returns false with
/// `error` naming the flag or variable when a value is malformed, a flag is
/// unknown or a flag lacks its value; settings applied before that keep
/// their new values.
[[nodiscard]] bool load_run_config(RunConfig& config, int argc,
                                   const char* const* argv, std::string& error);

/// The usage text: one line per option, generated from run_options().
[[nodiscard]] std::string run_help(const char* argv0);

}  // namespace curb::core
