// load_run_config must reject malformed option values with an error message
// that names the flag or variable and the expected shape — a silent fallback
// to defaults would make a typo'd CI pipeline measure the wrong thing. A
// flag and its CURB_* variable go through one parse, so they must agree on
// every value.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "curb/core/options.hpp"
#include "curb/core/parse_number.hpp"
#include "curb/core/run_config.hpp"

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

void clear_run_env(ScopedEnv& env) {
  for (const RunOption& option : run_options()) {
    if (option.env != nullptr) env.unset(option.env);
  }
}

bool load_env(RunConfig& config, std::string& error) {
  return load_run_config(config, 0, nullptr, error);
}

bool load_flag(RunConfig& config, const std::string& flag, const std::string& value,
               std::string& error) {
  const char* argv[] = {"curb-sim", flag.c_str(), value.c_str()};
  return load_run_config(config, 3, argv, error);
}

std::string expect_rejected(ScopedEnv& env, const char* name, const char* value) {
  env.set(name, value);
  RunConfig config;
  std::string error;
  EXPECT_FALSE(load_env(config, error))
      << name << "='" << value << "' should not parse";
  EXPECT_NE(error.find(name), std::string::npos)
      << "error should name the variable: " << error;
  env.unset(name);
  return error;
}

TEST(EnvTest, CleanEnvironmentApplies) {
  ScopedEnv env;
  clear_run_env(env);
  RunConfig config;
  std::string error;
  EXPECT_TRUE(load_env(config, error)) << error;
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
  // ";;" is not empty, but contains no rule.
  expect_rejected(env, "CURB_SLO", ";;");
  expect_rejected(env, "CURB_SLO", "p99(latency) <");
  expect_rejected(env, "CURB_SLO", "nonsense without operators");
}

TEST(EnvTest, AcceptsWellFormedValues) {
  ScopedEnv env;
  clear_run_env(env);
  env.set("CURB_SOLVER", "heuristic");
  env.set("CURB_FAULT_SEED", "42");
  env.set("CURB_TS_WINDOW", "250");
  env.set("CURB_TS_RETENTION", "16");
  RunConfig config;
  std::string error;
  ASSERT_TRUE(load_env(config, error)) << error;
  const CurbOptions& opts = config.options;
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
  for (const RunOption& option : run_options()) {
    const std::string name = option.env != nullptr ? option.env : "";
    account |= name == "CURB_MEM_ACCOUNT";
    out |= name == "CURB_MEM_OUT";
    folded |= name == "CURB_MEM_FOLDED";
  }
  EXPECT_TRUE(account);
  EXPECT_TRUE(out);
  EXPECT_TRUE(folded);
}

TEST(RunConfig, FlagAndVariableAgreeOnEveryValue) {
  // Every option with both routes, over values that are well-formed for
  // some options and malformed for others: both routes accept or reject
  // alike, an accepted value sets the same configuration, and a rejection
  // names the route it came through.
  const std::vector<std::string> values = {
      "", "0", "1", "250", "-7", "4.5", "abc", "1e999", ";;", "heuristic",
      "drop(p=0.1,cat=REPLY)", "p99(core.request_latency_us) < 2s", "out.json"};
  ScopedEnv env;
  clear_run_env(env);
  std::size_t both = 0;
  for (const RunOption& option : run_options()) {
    if (option.flag == nullptr || option.env == nullptr) continue;
    ++both;
    std::size_t accepted = 0;
    for (const std::string& value : values) {
      RunConfig via_env, via_flag;
      std::string env_error, flag_error;
      env.set(option.env, value.c_str());
      const bool env_ok = load_env(via_env, env_error);
      env.unset(option.env);
      const bool flag_ok = load_flag(via_flag, option.flag, value, flag_error);
      ASSERT_EQ(env_ok, flag_ok) << option.flag << " '" << value << "': " << env_error
                                 << flag_error;
      if (env_ok) {
        ++accepted;
        EXPECT_TRUE(via_env == via_flag) << option.flag << " '" << value << "'";
      } else {
        EXPECT_NE(env_error.find(option.env), std::string::npos) << env_error;
        EXPECT_NE(flag_error.find(option.flag), std::string::npos) << flag_error;
      }
    }
    EXPECT_GT(accepted, 0u) << option.flag << " accepted none of the sample values";
  }
  EXPECT_GE(both, 20u);
}

TEST(RunConfig, RejectsMalformedValuesThroughBothRoutes) {
  ScopedEnv env;
  clear_run_env(env);
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--slo", ";;"}, {"--fault-seed", "-7"}, {"--ts-retention", "0"},
      {"--ts-window", "0"}, {"--solver", "sparse"}, {"--fault", "drop(p=2)"}};
  for (const auto& [flag, value] : cases) {
    RunConfig config;
    std::string error;
    EXPECT_FALSE(load_flag(config, flag, value, error)) << flag << " '" << value << "'";
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
  expect_rejected(env, "CURB_SLO", ";;");
  expect_rejected(env, "CURB_FAULT_SEED", "-7");
  expect_rejected(env, "CURB_TS_RETENTION", "0");
  expect_rejected(env, "CURB_SOLVER", "sparse");
  expect_rejected(env, "CURB_FAULT", "drop(p=2)");
  expect_rejected(env, "CURB_BENCH_FAST", "yes");
  // Flag-only numbers and switches take the same strict parse.
  for (const auto& [flag, value] : std::vector<std::pair<const char*, const char*>>{
           {"--rounds", "abc"}, {"--seed", "-1"}, {"--parallel", "yes"},
           {"--capacity", "12x"}, {"--engine", "raft"}, {"--topology", "mesh"}}) {
    RunConfig config;
    std::string error;
    EXPECT_FALSE(load_flag(config, flag, value, error)) << flag << " '" << value << "'";
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
}

TEST(RunConfig, FlagsOverrideTheEnvironment) {
  ScopedEnv env;
  clear_run_env(env);
  env.set("CURB_FAULT_SEED", "5");
  env.set("CURB_TRACE", "env.json");
  const char* argv[] = {"curb-sim", "--fault-seed", "7", "--trace", "flag.json"};
  RunConfig config;
  std::string error;
  ASSERT_TRUE(load_run_config(config, 5, argv, error)) << error;
  EXPECT_EQ(config.options.fault_seed, 7u);
  EXPECT_EQ(config.out.trace, "flag.json");
}

TEST(RunConfig, UnknownFlagsAndMissingValuesAreErrors) {
  ScopedEnv env;
  clear_run_env(env);
  RunConfig config;
  std::string error;
  const char* unknown[] = {"curb-sim", "--sig-cache", "0"};
  EXPECT_FALSE(load_run_config(config, 3, unknown, error));
  EXPECT_NE(error.find("--sig-cache"), std::string::npos) << error;
  const char* missing[] = {"curb-sim", "--rounds"};
  EXPECT_FALSE(load_run_config(config, 2, missing, error));
  EXPECT_NE(error.find("--rounds"), std::string::npos) << error;
}

TEST(RunConfig, OutputsSwitchOnWhatTheyRead) {
  ScopedEnv env;
  clear_run_env(env);
  RunConfig traced;
  std::string error;
  ASSERT_TRUE(load_flag(traced, "--trace", "t.json", error)) << error;
  EXPECT_TRUE(traced.options.observability);

  // Link exports need the counters, not the whole observatory.
  RunConfig linked;
  ASSERT_TRUE(load_flag(linked, "--link-dot", "l.dot", error)) << error;
  EXPECT_TRUE(linked.options.link_telemetry);
  EXPECT_FALSE(linked.options.observability);

  RunConfig ledger;
  ASSERT_TRUE(load_flag(ledger, "--ledger-out", "l.jsonl", error)) << error;
  EXPECT_TRUE(ledger.options.msg_ledger);

  // Bench results carry the phase analysis; an empty path writes none.
  env.set("CURB_BENCH_OUT", "");
  RunConfig no_bench;
  ASSERT_TRUE(load_env(no_bench, error)) << error;
  EXPECT_EQ(no_bench.out.bench, std::optional<std::string>{""});
  EXPECT_FALSE(no_bench.options.observability);
  env.set("CURB_BENCH_OUT", "b.json");
  RunConfig bench;
  ASSERT_TRUE(load_env(bench, error)) << error;
  EXPECT_TRUE(bench.options.observability);
}

TEST(RunConfig, NamesAreUniqueAndHelpListsEveryOption) {
  const std::string help = run_help("curb-sim");
  std::set<std::string> names;
  for (const RunOption& option : run_options()) {
    ASSERT_TRUE(option.flag != nullptr || option.env != nullptr);
    for (const char* name : {option.flag, option.env}) {
      if (name == nullptr) continue;
      EXPECT_TRUE(names.insert(name).second) << name << " is declared twice";
      EXPECT_NE(help.find(name), std::string::npos) << name << " is missing from --help";
    }
    EXPECT_NE(help.find(option.help), std::string::npos);
  }
}

TEST(ParseNumber, AcceptsOnlyTheWholeStringAsTheType) {
  EXPECT_EQ(parse_number<std::size_t>("136"), std::optional<std::size_t>{136});
  EXPECT_EQ(parse_number<std::int64_t>("-7"), std::optional<std::int64_t>{-7});
  EXPECT_EQ(parse_number<double>("0.5"), std::optional<double>{0.5});
  for (const char* bad : {"", "abc", "10x", "2s", " 5", "+5", "-7", "4.5", "1e999"}) {
    EXPECT_FALSE(parse_number<std::size_t>(bad).has_value()) << "'" << bad << "'";
  }
  for (const char* bad : {"", "5x", "0.5x", "inf", "nan", "1e999", "+1"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace curb::core
