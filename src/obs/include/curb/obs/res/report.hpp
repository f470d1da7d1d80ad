#pragma once

// Memory-profile reporting: serialize a res::MemSnapshot to JSON, render the
// human top-allocator table, export per-frame allocation flamegraphs in the
// same collapsed-stack format as host-time profiles, and the entry
// prof::perf_diff compares (`curb-prof mem-report` / `mem-diff`).
//
// Everything here reports *host* measurements — profiles go to their own
// files and never into the deterministic trace/telemetry streams.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/res/account.hpp"
#include "curb/prof/bench_diff.hpp"

namespace curb::obs::res {

/// Serialize a snapshot as a standalone JSON document (tags in enum order;
/// all-zero tags are skipped). Round-trips through parse_mem_profile_json.
void write_mem_profile_json(const MemSnapshot& snap, std::ostream& out);

/// Parse a mem-profile JSON document through prof::parse_json (throws
/// std::runtime_error on malformed input or a counter that is not a whole
/// number in range; unknown tag names throw, missing tags read as zero).
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

/// What `curb-prof mem-diff` compares, as one prof::perf_diff entry named
/// "mem": cumulative bytes, allocation count and peak live bytes, in total
/// and for every tag ("total.alloc_bytes", "crypto.allocs",
/// "bft.peak_live_bytes", ...).
[[nodiscard]] prof::BenchEntry bench_entry(const MemSnapshot& snap);

/// `curb-prof mem-diff`'s default gate: growth past 25% and past 4096 bytes
/// or allocations (malloc jitter) regresses; shrinkage only ever reports.
inline constexpr prof::PerfDiffOptions kMemDiffOptions{.threshold_pct = 25.0,
                                                       .floor = 4096.0};

}  // namespace curb::obs::res
