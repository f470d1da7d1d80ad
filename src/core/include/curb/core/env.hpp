#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "curb/core/options.hpp"

namespace curb::core {

/// One documented CURB_* environment variable. The table drives both the
/// env-application helpers below and the `curb-sim --help` listing, so a
/// variable cannot be honoured without being documented (and vice versa).
struct EnvVar {
  const char* name;
  const char* value_hint;  // e.g. "path", "dense|heuristic"
  const char* description;
};

/// Every environment variable the curb binaries honour, in display order.
[[nodiscard]] const std::vector<EnvVar>& curb_env_vars();

/// getenv as an optional; unset and empty both return nullopt.
[[nodiscard]] std::optional<std::string> env_get(const char* name);

/// True when any CURB_* variable asks for observability output (traces,
/// metrics, bench results, time-series telemetry, or SLO rules), i.e. the
/// network should own an Observatory.
[[nodiscard]] bool env_observability_requested();

/// Apply every option-affecting CURB_* variable (CURB_SOLVER, CURB_FAULT,
/// CURB_FAULT_SEED, CURB_TS_OUT, CURB_TS_WINDOW, CURB_TS_RETENTION,
/// CURB_SLO) to `opts`. Returns false and fills `error` when a value does
/// not parse; options already applied keep their new values.
[[nodiscard]] bool apply_env_to_options(CurbOptions& opts, std::string* error);

}  // namespace curb::core
