#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "curb/core/network.hpp"
#include "curb/core/run_config.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::core {

/// Writes the files a run asked for, for curb-sim and every bench alike; it
/// is the one place output files are opened. An unwritable path is reported
/// as "<tool>: cannot write <path>" on stderr and makes the write call
/// return false; the other files are still written.
class RunOutput {
 public:
  /// Installs a host profiler on this thread when `paths` ask for a host
  /// profile or a memory flamegraph (whose frames it supplies).
  RunOutput(OutputPaths paths, std::string tool);
  /// Writes the process files if write_process() has not run.
  ~RunOutput();
  RunOutput(const RunOutput&) = delete;
  RunOutput& operator=(const RunOutput&) = delete;

  /// Closes the trailing telemetry window, then writes the SLO report (and
  /// summarises breaches on stderr), the link matrix/CSV/DOT, the ledger,
  /// the Chrome trace with counter events, the span JSONL and the metrics
  /// JSON/CSV that `network` has the data for. Writing again overwrites.
  bool write_network(CurbNetwork& network);

  /// Uninstalls the profiler, writes the host profiles and the memory
  /// profiles, and prints the one-line host and memory summaries.
  bool write_process();

 private:
  /// Writes `path` (nothing when empty) through `write`, reporting failure.
  bool write_file(const std::string& path, const std::function<void(std::ostream&)>& write) const;

  OutputPaths paths_;
  std::string tool_;
  prof::Profiler profiler_;
  prof::StopWatch wall_;
  bool profiling_ = false;
  bool process_written_ = false;
};

}  // namespace curb::core
