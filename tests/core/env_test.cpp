// apply_env_to_options must reject malformed CURB_* values with an error
// message that names the variable and the expected shape — a silent fallback
// to defaults would make a typo'd CI pipeline measure the wrong thing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "curb/core/env.hpp"
#include "curb/core/options.hpp"

namespace curb::core {
namespace {

// Scoped setenv: restores (or unsets) every touched variable on destruction
// so tests cannot leak state into each other or the surrounding process.
class ScopedEnv {
 public:
  void set(const char* name, const char* value) {
    save(name);
    ::setenv(name, value, 1);
  }
  void unset(const char* name) {
    save(name);
    ::unsetenv(name);
  }
  ~ScopedEnv() {
    for (const auto& [name, old] : saved_) {
      if (old.has_value()) {
        ::setenv(name.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

 private:
  void save(const char* name) {
    for (const auto& [seen, _] : saved_) {
      if (seen == name) return;  // keep the oldest value
    }
    const char* current = std::getenv(name);
    saved_.emplace_back(name, current != nullptr
                                  ? std::optional<std::string>{current}
                                  : std::nullopt);
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

std::string expect_rejected(ScopedEnv& env, const char* name, const char* value) {
  env.set(name, value);
  CurbOptions opts;
  std::string error;
  EXPECT_FALSE(apply_env_to_options(opts, &error))
      << name << "='" << value << "' should not parse";
  EXPECT_NE(error.find(name), std::string::npos)
      << "error should name the variable: " << error;
  env.unset(name);
  return error;
}

TEST(EnvTest, CleanEnvironmentApplies) {
  ScopedEnv env;
  for (const EnvVar& var : curb_env_vars()) env.unset(var.name);
  CurbOptions opts;
  std::string error;
  EXPECT_TRUE(apply_env_to_options(opts, &error)) << error;
  EXPECT_TRUE(error.empty());
}

TEST(EnvTest, RejectsUnknownSolver) {
  ScopedEnv env;
  const std::string error = expect_rejected(env, "CURB_SOLVER", "quantum");
  EXPECT_NE(error.find("dense|heuristic"), std::string::npos) << error;
}

TEST(EnvTest, RejectsMalformedFaultSeed) {
  ScopedEnv env;
  expect_rejected(env, "CURB_FAULT_SEED", "not-a-number");
  expect_rejected(env, "CURB_FAULT_SEED", "12abc");
  expect_rejected(env, "CURB_FAULT_SEED", "-7");
}

TEST(EnvTest, RejectsNonPositiveTsWindow) {
  ScopedEnv env;
  expect_rejected(env, "CURB_TS_WINDOW", "0");
  expect_rejected(env, "CURB_TS_WINDOW", "-50");
  expect_rejected(env, "CURB_TS_WINDOW", "fast");
  expect_rejected(env, "CURB_TS_WINDOW", "50ms");  // units belong to the var
}

TEST(EnvTest, RejectsNonNumericOrZeroRetention) {
  ScopedEnv env;
  expect_rejected(env, "CURB_TS_RETENTION", "many");
  expect_rejected(env, "CURB_TS_RETENTION", "0");
  expect_rejected(env, "CURB_TS_RETENTION", "-3");
  expect_rejected(env, "CURB_TS_RETENTION", "4.5");
}

TEST(EnvTest, RejectsEmptyOrMalformedSloRule) {
  ScopedEnv env;
  // ";;" survives env_get's empty-string filter but contains no rule.
  expect_rejected(env, "CURB_SLO", ";;");
  expect_rejected(env, "CURB_SLO", "p99(latency) <");
  expect_rejected(env, "CURB_SLO", "nonsense without operators");
}

TEST(EnvTest, AcceptsWellFormedValues) {
  ScopedEnv env;
  for (const EnvVar& var : curb_env_vars()) env.unset(var.name);
  env.set("CURB_SOLVER", "heuristic");
  env.set("CURB_FAULT_SEED", "42");
  env.set("CURB_TS_WINDOW", "250");
  env.set("CURB_TS_RETENTION", "16");
  CurbOptions opts;
  std::string error;
  ASSERT_TRUE(apply_env_to_options(opts, &error)) << error;
  EXPECT_EQ(opts.op_solver, opt::CapSolverBackend::kHeuristic);
  EXPECT_EQ(opts.fault_seed, 42u);
  EXPECT_EQ(opts.ts_window, sim::SimTime::millis(250));
  EXPECT_EQ(opts.ts_retention, 16u);
}

TEST(EnvTest, MemAccountVariablesAreDocumented) {
  // The accountant is latched from raw getenv before main (it cannot use this
  // table), but the table is the single source of user documentation — keep
  // the two in sync.
  bool account = false, out = false, folded = false;
  for (const EnvVar& var : curb_env_vars()) {
    account |= std::string{var.name} == "CURB_MEM_ACCOUNT";
    out |= std::string{var.name} == "CURB_MEM_OUT";
    folded |= std::string{var.name} == "CURB_MEM_FOLDED";
  }
  EXPECT_TRUE(account);
  EXPECT_TRUE(out);
  EXPECT_TRUE(folded);
}

}  // namespace
}  // namespace curb::core
