#include "curb/core/run_output.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "curb/obs/export.hpp"
#include "curb/obs/net/report.hpp"
#include "curb/obs/res/account.hpp"
#include "curb/obs/res/report.hpp"
#include "curb/prof/export.hpp"

namespace curb::core {

RunOutput::RunOutput(OutputPaths paths, std::string tool)
    : paths_{std::move(paths)}, tool_{std::move(tool)} {
  if ((!paths_.mem_out.empty() || !paths_.mem_folded.empty()) && !obs::res::enabled()) {
    // The accountant latches at the process's first allocation, before main,
    // so a flag is too late to turn it on: only the environment can. Warn
    // instead of writing an all-zero profile.
    std::fprintf(stderr,
                 "%s: memory accounting is off — set CURB_MEM_ACCOUNT=1 (or "
                 "CURB_MEM_OUT/CURB_MEM_FOLDED) in the environment\n",
                 tool_.c_str());
  }
  profiling_ = !paths_.prof.empty() || !paths_.prof_chrome.empty() || !paths_.mem_folded.empty();
  if (profiling_) prof::set_thread_profiler(&profiler_);
}

RunOutput::~RunOutput() {
  if (!process_written_) (void)write_process();
}

bool RunOutput::write_file(const std::string& path,
                           const std::function<void(std::ostream&)>& write) const {
  if (path.empty()) return true;
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (out) write(out);
  if (out) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", tool_.c_str(), path.c_str());
  return false;
}

bool RunOutput::write_network(CurbNetwork& network) {
  bool ok = true;
  const auto write = [&](const std::string& path, const auto& to) {
    ok = write_file(path, to) && ok;
  };
  network.finalize_telemetry();
  if (const obs::SloEngine* slo = network.slo(); slo != nullptr) {
    write(paths_.slo_report, [&](std::ostream& out) { slo->write_report_json(out); });
    if (slo->breached()) {
      std::ostringstream text;
      slo->write_report_text(text);
      std::fprintf(stderr, "%s: %zu SLO breach(es):\n%s", tool_.c_str(), slo->breaches().size(),
                   text.str().c_str());
    }
  }
  if (const obs::net::LinkStats* links = network.link_stats(); links != nullptr) {
    const obs::net::NodeNameFn names = network.link_node_names();
    obs::net::LinkReportOptions report;
    report.bandwidth_bps = network.options().link_model.bandwidth_bps;
    report.elapsed_s = network.simulator().now().as_seconds_f();
    write(paths_.link_matrix,
          [&](std::ostream& out) { obs::net::write_link_matrix_json(*links, names, report, out); });
    write(paths_.link_csv,
          [&](std::ostream& out) { obs::net::write_link_matrix_csv(*links, names, report, out); });
    write(paths_.link_dot,
          [&](std::ostream& out) { obs::net::write_link_dot(*links, names, report, out); });
  }
  if (const obs::net::MsgLedger* ledger = network.msg_ledger(); ledger != nullptr) {
    write(paths_.ledger, [&](std::ostream& out) { obs::net::write_ledger_jsonl(*ledger, out); });
  }
  const obs::Observatory* obsy = network.observatory();
  if (obsy == nullptr) return ok;
  network.snapshot_runtime_metrics();
  const obs::Tracer& tracer = obsy->tracer;
  const obs::MetricsRegistry& metrics = obsy->metrics;
  write(paths_.trace, [&](std::ostream& out) { obs::write_chrome_trace(tracer, &metrics, out); });
  write(paths_.trace_jsonl, [&](std::ostream& out) { obs::write_spans_jsonl(tracer, out); });
  write(paths_.metrics_json, [&](std::ostream& out) { obs::write_metrics_json(metrics, out); });
  write(paths_.metrics_csv, [&](std::ostream& out) { obs::write_metrics_csv(metrics, out); });
  return ok;
}

bool RunOutput::write_process() {
  process_written_ = true;
  if (profiling_) prof::set_thread_profiler(nullptr);
  bool ok = true;
  std::string written;
  const auto write = [&](const std::string& path, const auto& to) {
    if (path.empty()) return;
    if (write_file(path, to)) {
      written += (written.empty() ? "" : ", ") + path;
    } else {
      ok = false;
    }
  };
  write(paths_.prof, [&](std::ostream& out) { prof::write_collapsed(profiler_, out); });
  write(paths_.prof_chrome, [&](std::ostream& out) { prof::write_chrome_profile(profiler_, out); });
  // Without the accountant every counter is zero: write no memory profile.
  if (obs::res::enabled()) {
    const obs::res::MemSnapshot snap = obs::res::snapshot();
    write(paths_.mem_out, [&](std::ostream& out) { obs::res::write_mem_profile_json(snap, out); });
    write(paths_.mem_folded, [&](std::ostream& out) {
      obs::res::write_mem_collapsed(profiler_, obs::res::frame_allocations(), out);
    });
    const double mib = 1024.0 * 1024.0;
    const double total = static_cast<double>(snap.total.alloc_bytes);
    std::fprintf(stderr, "mem: alloc=%.1fMiB peak=%.1fMiB tagged=%.1f%%\n", total / mib,
                 static_cast<double>(snap.total.peak_live_bytes) / mib,
                 100.0 * static_cast<double>(snap.tagged_alloc_bytes()) / (total > 0 ? total : 1));
  }
  if (profiling_) {
    const double wall_s = wall_.elapsed_ms() / 1000.0;
    const auto events = static_cast<double>(profiler_.calls("sim.event"));
    std::fprintf(stderr, "host: wall=%.2fs events/s=%.0f profile written to %s\n", wall_s,
                 wall_s > 0.0 ? events / wall_s : 0.0,
                 written.empty() ? "(none)" : written.c_str());
  }
  return ok;
}

}  // namespace curb::core
