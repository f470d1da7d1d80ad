#pragma once

// Process exit-code contract shared by every curb CLI (curb-sim, curb-watch,
// curb-trace, curb-prof). The numeric values are part of the scripting
// interface — CI jobs and EXPERIMENTS.md recipes branch on them — so they
// must never change meaning:
//
//   0  success, nothing notable found
//   1  the tool ran and found a problem: protocol anomalies or a Theorem 1
//      bound exceeded (curb-trace), metric regressions (curb-trace diff,
//      curb-prof perf-diff / mem-diff — one engine, prof::perf_diff),
//      threshold verdict failures (curb-watch), or a failed run (curb-sim)
//   2  usage error: bad flags, unreadable files, input prof::parse_json or
//      a reader's typed accessors reject (a malformed span, telemetry or
//      ledger line, BENCH file, memory profile or CAP instance)
//   3  the SLO watchdog fired (curb-sim live engine, curb-watch replay)
//
// Keep 1 and 3 distinct: a breach is a measured service-level event on an
// otherwise healthy run, not a tool failure — scripts retry/annotate them
// differently.

namespace curb::core {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFinding = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitSloBreach = 3;

}  // namespace curb::core
