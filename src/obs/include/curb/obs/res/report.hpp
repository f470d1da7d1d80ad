#pragma once

// Memory-profile reporting: serialize a res::MemSnapshot to JSON, render the
// human top-allocator table, export per-frame allocation flamegraphs in the
// same collapsed-stack format as host-time profiles, and diff two profiles
// with regression thresholds (`curb-prof mem-report` / `mem-diff`).
//
// Everything here reports *host* measurements — profiles go to their own
// files and never into the deterministic trace/telemetry streams.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/res/account.hpp"

namespace curb::obs::res {

/// Serialize a snapshot as a standalone JSON document (tags in enum order;
/// all-zero tags are skipped). Round-trips through parse_mem_profile_json.
void write_mem_profile_json(const MemSnapshot& snap, std::ostream& out);

/// Parse a mem-profile JSON document (throws std::runtime_error on malformed
/// input; unknown tag names throw, missing tags read as zero).
[[nodiscard]] MemSnapshot parse_mem_profile_json(std::istream& in);

/// Human report: totals, attribution coverage, and the per-tag allocator
/// table sorted by cumulative bytes.
void write_mem_report(const MemSnapshot& snap, std::ostream& out);

/// Collapsed-stack memory flamegraph: one line per attribution-tree frame
/// with nonzero allocated bytes, `frame;frame <bytes>` — flamegraph.pl's
/// `--countname=bytes` renders it directly. `frames` is indexed like
/// `profiler.nodes()` (see frame_allocations()); out-of-range entries are
/// ignored so a stale table cannot crash the export.
void write_mem_collapsed(const prof::Profiler& profiler,
                         const std::vector<FrameAlloc>& frames, std::ostream& out);

struct MemDiffOptions {
  /// Relative-change gate, percent, applied to per-tag cumulative bytes,
  /// allocation counts, and peak-live bytes.
  double threshold_pct = 25.0;
  /// Absolute byte/count change below this is ignored (malloc jitter).
  double floor = 4096.0;
  /// Downgrade regressions to warnings (CI smoke mode).
  bool warn_only = false;
};

struct MemDelta {
  std::string metric;  // "crypto.alloc_bytes", "total.peak_live_bytes", ...
  std::uint64_t base = 0;
  std::uint64_t candidate = 0;
  double delta_pct = 0.0;
  bool regressed = false;  // false = warn-only or improvement
};

struct MemDiffResult {
  std::vector<MemDelta> deltas;  // beyond-threshold changes only
  std::size_t metrics_compared = 0;

  [[nodiscard]] std::size_t regressions() const;
};

/// Compare candidate against baseline: growth in cumulative bytes, allocs, or
/// peak beyond the threshold regresses (shrinkage only ever reports).
[[nodiscard]] MemDiffResult mem_diff(const MemSnapshot& base,
                                     const MemSnapshot& candidate,
                                     const MemDiffOptions& options = {});

void write_mem_diff_text(const MemDiffResult& diff, std::ostream& out);

}  // namespace curb::obs::res
