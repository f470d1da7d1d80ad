// curb-perfbench: the repository benchmark.
//
// Runs one workload of the Curb simulator for a given wall-clock budget and
// prints its metrics as JSON. A run builds fresh CurbSimulation networks from
// explicit CurbOptions (never from the environment) and drives each through a
// fixed number of closed-loop rounds. The virtual results of a network depend
// only on the workload and the seed, so every network of a run must reproduce
// the first one exactly; the host-time results pool every network's rounds
// and set-ups.
//
//   curb-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--rounds R] [--profile-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced networks (Observatory on, host Profiler installed) and prints the
// per-layer metrics. The last stdout line is the result object; the line
// before it ("perfbench-detail ...") carries sample counts, ratio bases and
// the exact virtual results for cross-run comparison.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "curb/bft/group.hpp"
#include "curb/chain/block.hpp"
#include "curb/core/network.hpp"
#include "curb/core/options.hpp"
#include "curb/core/simulation.hpp"
#include "curb/crypto/secp256k1.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/crypto/sigcache.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/opt/solver.hpp"
#include "curb/prof/export.hpp"
#include "curb/prof/profiler.hpp"

namespace {

using curb::core::CurbNetwork;
using curb::core::CurbOptions;
using curb::core::CurbSimulation;
using curb::sim::SimTime;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind : std::uint8_t { kPacketIn, kReassign };

struct Workload {
  std::string name;
  Kind kind = Kind::kPacketIn;
  /// PKT-INs each switch issues per round (kPacketIn only).
  std::size_t per_switch = 0;
  /// Rounds per network. Fixed, so the virtual results of a network never
  /// depend on how many networks fit into the wall-clock budget.
  std::size_t rounds = 0;
  CurbOptions options;
};

/// The paper deployment shared by every workload: Internet2, f = 1, PBFT,
/// the paper link model with a 15 ms per-message overhead, a 500 ms request
/// timeout, and a fixed 20 ms virtual OP() time. Every option that shapes
/// the measured program is set here rather than inherited from defaults or
/// the environment.
CurbOptions paper_deployment(std::uint64_t seed) {
  CurbOptions o;
  o.f = 1;
  o.consensus_engine = curb::bft::ConsensusEngine::kPbft;
  o.parallel = true;
  o.link_model.velocity_m_per_s = 2.0e8;
  o.link_model.bandwidth_bps = 100.0e6;
  o.link_model.per_message_overhead = SimTime::millis(15);
  o.request_timeout = SimTime::millis(500);
  o.lazy_threshold = SimTime::millis(350);
  o.max_lazy_rounds = 5;
  o.max_silent_rounds = 3;
  o.op_time_mode = curb::core::OpTimeMode::kFixed;
  o.op_fixed_time = SimTime::millis(20);
  o.op_solver = curb::opt::CapSolverBackend::kDense;
  o.op_wall_limit_ms = 1000.0;
  o.reassign_objective = curb::opt::CapObjective::kTrivial;
  o.reass_always_solve = false;
  o.verify_signatures = false;
  o.observability = false;
  o.link_telemetry = false;
  o.msg_ledger = false;
  o.ts_window = SimTime::zero();
  o.slo_rules.clear();
  o.fault_spec.clear();
  o.seed = seed;
  return o;
}

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string{name};
  w.options = paper_deployment(seed);
  // The paper OP() instance: capacity 12, D_cs 14 ms.
  w.options.controller_capacity = 12.0;
  w.options.max_cs_delay_ms = 14.0;
  if (name == "pktin_parallel") {
    w.per_switch = 3;
    w.rounds = 40;
  } else if (name == "pktin_signed") {
    w.options.verify_signatures = true;
    w.per_switch = 1;
    w.rounds = 15;
  } else if (name == "reassign") {
    w.kind = Kind::kReassign;
    w.rounds = 30;
    w.options.reassign_objective = curb::opt::CapObjective::kTrivial;
    w.options.reass_always_solve = true;
    w.options.controller_capacity = 1e9;
    w.options.max_cs_delay_ms = 10.0;
    w.options.op_wall_limit_ms = 400.0;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Seeded inputs

/// splitmix64: the benchmark's only source of randomness, so the same seed
/// gives the same inputs on every host and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 32) * n >> 32);
  }

 private:
  std::uint64_t state_;
};

/// RE-ASS probes are spread over this much virtual time at the start of a
/// round; the seed draws each switch's offset.
constexpr std::int64_t kReassSpreadUs = 10'000;

/// Start one round: every switch issues its requests. PKT-IN rounds clear the
/// flow tables so every packet misses, then each switch sends `per_switch`
/// packets to distinct other switches (each packet also misses at its egress
/// switch, which issues a second PKT-IN there). The seed draws the traffic
/// matrix: switches are shuffled onto a ring and packet k goes `shift_k`
/// places along it, so every switch sends and receives exactly `per_switch`
/// packets and no group sees more load than the assignment gives it. RE-ASS
/// rounds issue one forced empty-accusation probe per switch at a seeded
/// offset.
void issue_round(CurbNetwork& net, const Workload& w, Rng& rng) {
  const auto n = static_cast<std::uint32_t>(net.num_switches());
  if (w.kind == Kind::kReassign) {
    for (std::uint32_t sw = 0; sw < n; ++sw) {
      curb::core::SwitchNode& node = net.switch_node(sw);
      node.clear_records();
      const SimTime offset = SimTime::micros(rng.below(kReassSpreadUs));
      net.simulator().schedule(offset,
                               [&node] { node.request_reassignment({}, /*force=*/true); });
    }
    return;
  }
  std::vector<std::uint32_t> ring(n);
  for (std::uint32_t i = 0; i < n; ++i) ring[i] = i;
  for (std::uint32_t i = n - 1; i > 0; --i) std::swap(ring[i], ring[rng.below(i + 1)]);
  std::vector<std::uint32_t> shifts;
  while (shifts.size() < w.per_switch) {
    const std::uint32_t shift = 1 + rng.below(n - 1);
    if (std::find(shifts.begin(), shifts.end(), shift) == shifts.end()) shifts.push_back(shift);
  }
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    curb::core::SwitchNode& node = net.switch_node(ring[pos]);
    node.clear_records();
    node.reset_flow_table();
  }
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    for (const std::uint32_t shift : shifts) {
      net.switch_node(ring[pos]).host_send(ring[(pos + shift) % n]);
    }
  }
}

// ---------------------------------------------------------------------------
// One network

/// Everything a network's run produced on the virtual clock. Exact: two
/// networks built from the same workload and seed must compare equal.
struct VirtualResult {
  std::string genesis;
  std::uint64_t issued = 0;
  std::uint64_t accepted = 0;
  std::vector<std::int64_t> latencies_us;  // per accepted request
  std::int64_t duration_us = 0;            // sum of round durations
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t height = 0;
  std::uint64_t chain_txs = 0;
  std::uint64_t accusations = 0;
  std::uint64_t max_epoch = 0;
  std::uint64_t op_solves = 0;

  bool operator==(const VirtualResult&) const = default;
};

struct NetworkRun {
  std::unique_ptr<CurbSimulation> sim;
  double setup_s = 0.0;
  std::vector<double> round_ms;     // host time of each round call
  std::vector<double> round_rates;  // accepted requests per host second, per round
  VirtualResult result;
  bool correct = false;
  std::string failure;
};

/// Build a network (Step 0: keygen, initial OP() solve, genesis, replicas),
/// run the workload's rounds, and check the outputs. The prof scopes are the
/// benchmark's spans around each call into the library; they cost one branch
/// when no profiler is installed.
NetworkRun run_network(const Workload& w, std::uint64_t seed, bool observability) {
  NetworkRun run;
  CurbOptions options = w.options;
  options.observability = observability;
  // Each network starts from an empty signature cache, so later networks of
  // a run do not hit entries the first one left behind.
  curb::crypto::SigCache::instance().clear();
  {
    const curb::prof::Scope span{"perfbench.setup"};
    const curb::prof::StopWatch watch;
    run.sim = std::make_unique<CurbSimulation>(options);
    run.setup_s = watch.elapsed_ms() / 1000.0;
  }
  CurbNetwork& net = run.sim->network();
  VirtualResult& r = run.result;
  r.genesis = curb::crypto::to_hex(net.genesis_block().hash());

  Rng rng{seed ^ 0x5eedf00dULL};
  const SimTime window = options.request_timeout * 4 + SimTime::seconds(2);
  const std::uint64_t messages_before = net.bus().stats().total_messages();
  const std::uint64_t bytes_before = net.bus().stats().total_bytes();
  const std::uint64_t events_before = net.simulator().events_executed();
  for (std::size_t round = 0; round < w.rounds; ++round) {
    const SimTime start = net.simulator().now();
    const curb::prof::StopWatch watch;
    {
      const curb::prof::Scope span{"perfbench.round"};
      issue_round(net, w, rng);
      net.simulator().run_until(start + window);
    }
    const double ms = watch.elapsed_ms();
    run.round_ms.push_back(ms);

    const std::uint64_t accepted_before = r.accepted;
    SimTime last_accept = start;
    for (std::uint32_t sw = 0; sw < net.num_switches(); ++sw) {
      for (const auto& record : net.switch_node(sw).records()) {
        if (record.sent < start) continue;
        ++r.issued;
        if (!record.accepted) continue;
        ++r.accepted;
        r.latencies_us.push_back((*record.accepted - record.sent).as_micros());
        last_accept = std::max(last_accept, *record.accepted);
      }
    }
    r.duration_us += (last_accept - start).as_micros();
    run.round_rates.push_back(static_cast<double>(r.accepted - accepted_before) /
                              std::max(ms / 1000.0, 1e-9));
  }
  r.messages = net.bus().stats().total_messages() - messages_before;
  r.bytes = net.bus().stats().total_bytes() - bytes_before;
  r.events = net.simulator().events_executed() - events_before;
  const curb::chain::Blockchain& chain = net.controller(0).blockchain();
  r.height = chain.height();
  r.chain_txs = chain.total_transactions();
  for (std::uint32_t sw = 0; sw < net.num_switches(); ++sw) {
    r.accusations += net.switch_node(sw).reported_byzantine().size();
    r.max_epoch = std::max(r.max_epoch, net.switch_node(sw).current_epoch());
  }
  for (std::uint32_t c = 0; c < net.num_controllers(); ++c) {
    r.op_solves += net.controller(c).stats().op_solves;
  }

  if (!run.sim->chains_consistent()) {
    run.failure = "controller chains differ";
  } else if (r.chain_txs < r.accepted) {
    run.failure = "chain holds " + std::to_string(r.chain_txs) +
                  " transactions for " + std::to_string(r.accepted) + " accepted requests";
  } else if (r.accepted == 0) {
    run.failure = "no request was accepted";
  }
  run.correct = run.failure.empty();
  return run;
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size()) + 0.999999);
  idx = std::clamp<std::size_t>(idx, 1, v.size());
  return v[idx - 1];
}

/// Host throughput from per-round rates (accepted requests per host second of
/// one round call): the 90th percentile. Other load on the host only ever
/// slows rounds down, in phases lasting seconds, so the fast end of the
/// distribution is the program's own speed while the median follows the load.
double host_rate(const std::vector<double>& round_rates) {
  return percentile(round_rates, 90.0);
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// A reported metric. `n` is the sample count behind a timing, `base` the
/// denominator behind a ratio; the detail line prints both.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::optional<double> n;
  std::optional<double> base;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::optional<double> n = std::nullopt,
           std::optional<double> base = std::nullopt) {
    metrics_.push_back({std::move(name), value, std::move(unit), n, base});
  }
  void note(std::string key, std::string json_value) {
    notes_.emplace_back(std::move(key), std::move(json_value));
  }

  /// The detail line, then the result object as the last stdout line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string detail = "{";
    for (const auto& [key, value] : notes_) detail += quoted(key) + ":" + value + ",";
    detail += "\"metrics\":{";
    std::string result = "{\"correct\":" + std::string{correct ? "true" : "false"} +
                         ",\"attempted\":" + std::to_string(attempted) +
                         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const std::string sep = i == 0 ? "" : ",";
      const std::string body = "\"value\":" + num(m.value) + ",\"unit\":" + quoted(m.unit);
      result += sep + quoted(m.name) + ":{" + body + "}";
      detail += sep + quoted(m.name) + ":{" + body;
      if (m.n) detail += ",\"n\":" + num(*m.n);
      if (m.base) detail += ",\"base\":" + num(*m.base);
      detail += "}";
    }
    std::printf("perfbench-detail %s}}\n%s}}\n", detail.c_str(), result.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

std::string virtual_json(const VirtualResult& r) {
  const curb::obs::LatencyStats lat = curb::obs::make_latency_stats(r.latencies_us);
  return "{\"genesis\":" + quoted(r.genesis) + ",\"issued\":" + std::to_string(r.issued) +
         ",\"accepted\":" + std::to_string(r.accepted) +
         ",\"lat_p50_us\":" + std::to_string(lat.p50_us) +
         ",\"lat_p99_us\":" + std::to_string(lat.p99_us) +
         ",\"lat_sum_us\":" + std::to_string(lat.sum_us) +
         ",\"duration_us\":" + std::to_string(r.duration_us) +
         ",\"messages\":" + std::to_string(r.messages) +
         ",\"bytes\":" + std::to_string(r.bytes) + ",\"events\":" + std::to_string(r.events) +
         ",\"height\":" + std::to_string(r.height) +
         ",\"chain_txs\":" + std::to_string(r.chain_txs) +
         ",\"accusations\":" + std::to_string(r.accusations) +
         ",\"max_epoch\":" + std::to_string(r.max_epoch) +
         ",\"op_solves\":" + std::to_string(r.op_solves) + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Per-layer measurements of a traced network

std::uint64_t counter_sum(const curb::obs::MetricsRegistry& registry, std::string_view name) {
  std::uint64_t sum = 0;
  for (const auto& [key, metric] : registry.metrics()) {
    if (metric.name == name && metric.counter != nullptr) sum += metric.counter->value();
  }
  return sum;
}

/// p50 of every series of a histogram name merged (the series share the
/// default bucket bounds); interpolates inside the containing bucket like
/// obs::Histogram::percentile.
std::pair<double, std::uint64_t> merged_histogram_p50(
    const curb::obs::MetricsRegistry& registry, std::string_view name) {
  std::vector<std::uint64_t> counts;
  const curb::obs::Histogram* shape = nullptr;
  std::uint64_t total = 0;
  double lo_seen = 0.0;
  double hi_seen = 0.0;
  for (const auto& [key, metric] : registry.metrics()) {
    if (metric.name != name || metric.histogram == nullptr) continue;
    const curb::obs::Histogram& h = *metric.histogram;
    if (h.count() == 0) continue;
    if (shape == nullptr) {
      shape = &h;
      counts.assign(h.bucket_count(), 0);
      lo_seen = h.min();
      hi_seen = h.max();
    }
    if (h.bucket_count() != counts.size()) continue;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += h.count_at(i);
    total += h.count();
    lo_seen = std::min(lo_seen, h.min());
    hi_seen = std::max(hi_seen, h.max());
  }
  if (total == 0) return {0.0, 0};
  const double rank = 0.5 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto before = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) < rank) continue;
    const double lo = i == 0 ? std::min(lo_seen, shape->upper_bound(0)) : shape->upper_bound(i - 1);
    const double hi = i + 1 == counts.size() ? hi_seen : shape->upper_bound(i);
    const double frac = (rank - before) / static_cast<double>(counts[i]);
    return {std::clamp(lo + frac * (hi - lo), lo_seen, hi_seen), total};
  }
  return {hi_seen, total};
}

/// Host-time share per layer, counted only under the benchmark's round spans.
std::map<std::string, std::uint64_t> round_shares(const curb::prof::Profiler& profiler,
                                                  std::uint64_t* total_ns) {
  const auto& nodes = profiler.nodes();
  std::vector<bool> in_round(nodes.size(), false);
  std::map<std::string, std::uint64_t> by_layer;
  *total_ns = 0;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {  // parents precede children
    const auto& node = nodes[i];
    in_round[i] = node.label == "perfbench.round" || in_round[node.parent];
    if (!in_round[i]) continue;
    if (node.label == "perfbench.round") *total_ns += node.inclusive_ns;
    const std::string layer = node.label.substr(0, node.label.find('.'));
    by_layer[layer] += profiler.exclusive_ns(i);
  }
  return by_layer;
}

/// Standalone probes after the rounds, each timed around one library call on
/// data from the traced network. Adds the opt, crypto, chain and bft probe
/// metrics to `report`; returns what a probe found wrong, if anything.
std::vector<std::string> run_probes(const Workload& w, std::uint64_t seed, CurbNetwork& net,
                                    Report& report) {
  std::vector<std::string> failures;
  const curb::chain::Blockchain& chain = net.controller(0).blockchain();
  std::vector<const curb::chain::Block*> blocks;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) blocks.push_back(&chain.at(h));

  {  // opt: the initial OP() solve, as Step 0 runs it.
    const curb::prof::Scope span{"perfbench.probe.setup_solve"};
    curb::opt::CapSolverOptions solver_options;
    solver_options.milp.max_wall_ms = w.options.op_wall_limit_ms;
    solver_options.reuse_last_assignment = false;
    auto solver = curb::opt::make_cap_solver(w.options.op_solver, solver_options);
    const curb::opt::CapInstance instance = net.build_cap_instance({});
    const curb::prof::StopWatch watch;
    const curb::opt::CapResult result =
        solver->solve(instance, curb::opt::CapObjective::kTrivial, nullptr);
    report.add("opt.setup_solve_ms", watch.elapsed_ms(), "ms", 1);
    report.add("opt.setup_proven", result.stats.proven ? 1.0 : 0.0, "bool");
    report.add("opt.setup_bnb_nodes", static_cast<double>(result.stats.milp_nodes), "count");
  }

  {  // crypto: ECDSA over transaction ids from the run.
    const curb::prof::Scope span{"perfbench.probe.ecdsa"};
    constexpr std::size_t kSignatures = 8;
    std::vector<curb::crypto::Hash256> digests;
    for (const auto* block : blocks) {
      for (const auto& tx : block->transactions()) {
        if (digests.size() < kSignatures) digests.push_back(tx.id());
      }
    }
    const auto key = curb::crypto::KeyPair::from_seed("perfbench-" + std::to_string(seed));
    double sign_ms = 0.0;
    double verify_ms = 0.0;
    bool all_valid = true;
    for (const auto& digest : digests) {
      curb::prof::StopWatch watch;
      const curb::crypto::Signature sig = key.sign(digest);
      sign_ms += watch.lap_ms();
      all_valid = curb::crypto::verify(key.public_key(), digest, sig) && all_valid;
      verify_ms += watch.lap_ms();
    }
    const auto n = static_cast<double>(std::max<std::size_t>(digests.size(), 1));
    report.add("crypto.sign_us", sign_ms * 1000.0 / n, "us", static_cast<double>(digests.size()));
    report.add("crypto.verify_us", verify_ms * 1000.0 / n, "us",
               static_cast<double>(digests.size()));
    if (!all_valid) failures.emplace_back("a probe signature did not verify");
  }

  {  // crypto + chain: Merkle roots and block checks on committed blocks.
    const curb::prof::Scope span{"perfbench.probe.blocks"};
    double merkle_ms = 0.0;
    double well_formed_ms = 0.0;
    bool all_well_formed = true;
    for (const auto* block : blocks) {
      curb::prof::StopWatch watch;
      const curb::crypto::Hash256 root = curb::chain::Block::merkle_root_of(block->transactions());
      merkle_ms += watch.lap_ms();
      all_well_formed = block->well_formed() && all_well_formed;
      well_formed_ms += watch.lap_ms();
      all_well_formed = all_well_formed && root == block->header().merkle_root;
    }
    const auto n = static_cast<double>(std::max<std::size_t>(blocks.size(), 1));
    report.add("crypto.merkle_root_us", merkle_ms * 1000.0 / n, "us",
               static_cast<double>(blocks.size()));
    report.add("chain.well_formed_us", well_formed_ms * 1000.0 / n, "us",
               static_cast<double>(blocks.size()));
    if (!all_well_formed) failures.emplace_back("a committed block is malformed");
  }

  {  // crypto: SHA-256 throughput at the run's mean serialized block size.
    const curb::prof::Scope span{"perfbench.probe.sha256"};
    std::size_t block_bytes = 0;
    for (const auto* block : blocks) block_bytes += block->serialize().size();
    block_bytes = std::max<std::size_t>(block_bytes / std::max<std::size_t>(blocks.size(), 1), 64);
    std::vector<std::uint8_t> buffer(block_bytes);
    for (std::size_t i = 0; i < buffer.size(); ++i) buffer[i] = static_cast<std::uint8_t>(i * 131);
    constexpr std::size_t kHashedBytes = 16u << 20;
    const std::size_t reps = std::max<std::size_t>(kHashedBytes / block_bytes, 1);
    const curb::prof::StopWatch watch;
    for (std::size_t i = 0; i < reps; ++i) {
      const curb::crypto::Hash256 digest = curb::crypto::Sha256::digest(buffer);
      buffer[0] = digest[0];
    }
    const double seconds = watch.elapsed_ms() / 1000.0;
    report.add("crypto.sha256_mb_s",
               static_cast<double>(reps * block_bytes) / 1e6 / std::max(seconds, 1e-9), "MB/s",
               static_cast<double>(reps));
  }

  {  // bft: one standalone PBFT round in a group of 3f+1.
    const curb::prof::Scope span{"perfbench.probe.pbft_round"};
    constexpr int kRounds = 200;
    const curb::prof::StopWatch watch;
    std::uint64_t messages = 0;
    for (int i = 0; i < kRounds; ++i) {
      curb::sim::Simulator sim;
      curb::bft::PbftGroup group{sim, {.group_size = 3 * w.options.f + 1}};
      group.replica(0).propose({0x01, 0x02});
      sim.run_until(SimTime::millis(400));
      messages += group.messages_sent();
    }
    report.add("bft.round_us", watch.elapsed_ms() * 1000.0 / kRounds, "us", kRounds);
    if (messages == 0) failures.emplace_back("the PBFT probe sent no message");
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Runs

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t rounds = 0;  // 0 = the workload's own count
  std::string profile_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (flag == "--rounds") {
        args.rounds = std::stoull(value);
      } else if (flag == "--profile-out") {
        args.profile_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed) return std::nullopt;
  return args;
}

/// The wall-clock budget of a run. Work comes in whole networks; another one
/// starts only if it would end within the budget at the pace of the last one,
/// so a run takes the budget or one network, whichever is longer.
class Budget {
 public:
  explicit Budget(double seconds) : budget_ms_{seconds * 1000.0} {}
  bool another_fits() {
    const double now = run_.elapsed_ms();
    const double last = now - last_end_ms_;
    last_end_ms_ = now;
    return now + last <= budget_ms_;
  }

 private:
  double budget_ms_;
  curb::prof::StopWatch run_;
  double last_end_ms_ = 0.0;
};

/// Tallies every network of a run: requests attempted and failed (a network
/// that fails its correctness checks fails all its requests), and whether
/// every network reproduced the first one's virtual results.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool host_independent = true;
  std::optional<VirtualResult> reference;
  std::vector<std::string> failures;

  void add(const NetworkRun& run, const char* label) {
    attempted += run.result.issued;
    failed += run.correct ? run.result.issued - run.result.accepted : run.result.issued;
    if (!run.correct) {
      correct = false;
      failures.push_back(std::string{label} + ": " + run.failure);
    }
    if (!reference) {
      reference = run.result;
    } else if (!(run.result == *reference)) {
      host_independent = false;
      std::fprintf(stderr, "perfbench: %s network disagrees with the first network: %s vs %s\n",
                   label, virtual_json(run.result).c_str(), virtual_json(*reference).c_str());
    }
  }

  void annotate(Report& report) const {
    report.note("host_independent", host_independent ? "true" : "false");
    report.note("virtual", virtual_json(*reference));
    std::string list = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      list += (i == 0 ? "" : ",") + quoted(failures[i]);
    }
    report.note("failures", list + "]");
  }
};

/// --trace 0: networks until the budget is spent; end-to-end metrics.
int run_untraced(const Workload& w, const Args& args) {
  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> rates;  // per round, over every network
  std::size_t networks = 0;
  // Set-up time is the median of several constructions, each of which must
  // produce the first network's genesis block. Cheap set-ups are repeated
  // after every network, so their samples span the run; a run has at least
  // three.
  const auto extra_setup = [&] {
    const curb::prof::StopWatch watch;
    const CurbSimulation sim{w.options};
    setup_s.push_back(watch.elapsed_ms() / 1000.0);
    if (curb::crypto::to_hex(sim.network().genesis_block().hash()) != tally.reference->genesis) {
      tally.host_independent = false;
      std::fprintf(stderr, "perfbench: a set-up produced a different genesis block\n");
    }
  };
  Budget budget{args.seconds};
  do {
    NetworkRun run = run_network(w, args.seed, /*observability=*/false);
    tally.add(run, "untraced");
    setup_s.push_back(run.setup_s);
    rates.insert(rates.end(), run.round_rates.begin(), run.round_rates.end());
    ++networks;
    const curb::prof::StopWatch extra;
    while (run.setup_s < 0.05 && extra.elapsed_ms() < 150.0) extra_setup();
  } while (budget.another_fits());
  while (setup_s.size() < 3) extra_setup();

  const VirtualResult& r = *tally.reference;
  const curb::obs::LatencyStats lat = curb::obs::make_latency_stats(r.latencies_us);
  const auto samples = static_cast<double>(lat.count);
  const double beyond_p99 =
      samples - std::min(samples, std::ceil(0.99 * samples - 1e-9));
  Report report;
  report.note("workload", quoted(w.name));
  report.note("seed", std::to_string(args.seed));
  report.note("networks", std::to_string(networks));
  report.note("rounds_per_network", std::to_string(w.rounds));
  report.note("lat_samples_beyond_p99", num(beyond_p99));
  tally.annotate(report);
  report.add("setup_s", median(setup_s), "s", static_cast<double>(setup_s.size()));
  report.add("req_per_host_s", host_rate(rates), "req/s", static_cast<double>(rates.size()));
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("lat_p50_ms", static_cast<double>(lat.p50_us) / 1000.0, "ms", samples);
  if (beyond_p99 >= 10.0) {
    report.add("lat_p99_ms", static_cast<double>(lat.p99_us) / 1000.0, "ms", samples);
  }
  report.add("tps_virtual",
             static_cast<double>(r.accepted) / (static_cast<double>(r.duration_us) / 1e6),
             "req/s", std::nullopt, static_cast<double>(r.duration_us) / 1e6);
  report.add("accepted_share", static_cast<double>(r.accepted) / static_cast<double>(r.issued),
             "ratio", std::nullopt, static_cast<double>(r.issued));
  report.add("msgs_per_req", static_cast<double>(r.messages) / static_cast<double>(r.accepted),
             "msgs", std::nullopt, static_cast<double>(r.accepted));
  report.print(tally.correct, tally.attempted, tally.failed);
  return tally.correct ? 0 : 1;
}

/// --trace 1: untraced and traced networks alternate until the budget is
/// spent, then the probes run; per-layer metrics.
int run_traced(const Workload& w, const Args& args) {
  Tally tally;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  std::vector<double> untraced_round_ms;
  std::optional<NetworkRun> last_traced;
  curb::crypto::SigCacheStats cache{};
  std::size_t traced_networks = 0;
  curb::prof::Profiler profiler;
  Budget budget{args.seconds};
  do {
    NetworkRun untraced = run_network(w, args.seed, /*observability=*/false);
    tally.add(untraced, "untraced");
    untraced_rates.insert(untraced_rates.end(), untraced.round_rates.begin(),
                          untraced.round_rates.end());
    untraced_round_ms.insert(untraced_round_ms.end(), untraced.round_ms.begin(),
                             untraced.round_ms.end());
    last_traced.reset();  // one network alive at a time keeps memory flat

    const curb::crypto::SigCacheStats before = curb::crypto::SigCache::instance().stats();
    {
      const curb::prof::Session session{profiler};
      last_traced = run_network(w, args.seed, /*observability=*/true);
    }
    const curb::crypto::SigCacheStats after = curb::crypto::SigCache::instance().stats();
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    tally.add(*last_traced, "traced");
    traced_rates.insert(traced_rates.end(), last_traced->round_rates.begin(),
                        last_traced->round_rates.end());
    ++traced_networks;
  } while (budget.another_fits());

  Report report;
  report.note("workload", quoted(w.name));
  report.note("seed", std::to_string(args.seed));
  report.note("networks", std::to_string(2 * traced_networks));
  report.note("rounds_per_network", std::to_string(w.rounds));
  CurbNetwork& net = last_traced->sim->network();
  const VirtualResult& r = last_traced->result;
  const auto accepted = static_cast<double>(r.accepted);
  const curb::obs::Observatory& obsy = *net.observatory();
  const curb::obs::MetricsRegistry& registry = obsy.metrics;

  // opt
  double solve_ms = 0.0;
  for (std::uint32_t c = 0; c < net.num_controllers(); ++c) {
    solve_ms += net.controller(c).stats().op_solve_time_ms_total;
  }
  const auto solves = static_cast<double>(r.op_solves);
  report.add("opt.solves", solves, "count");
  report.add("opt.solve_ms_mean", solves > 0 ? solve_ms / solves : 0.0, "ms", solves);
  // crypto (cache)
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  report.add("crypto.sigcache_hit_ratio",
             lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio",
             std::nullopt, lookups);
  report.add("crypto.verify_calls", lookups / static_cast<double>(traced_networks), "count");
  // chain
  std::uint64_t block_txs = 0;
  for (std::uint64_t h = 1; h <= r.height; ++h) {
    block_txs += net.controller(0).blockchain().at(h).transactions().size();
  }
  report.add("chain.height", static_cast<double>(r.height), "count");
  report.add("chain.txs_per_block",
             r.height > 0 ? static_cast<double>(block_txs) / static_cast<double>(r.height) : 0.0,
             "txs", std::nullopt, static_cast<double>(r.height));
  report.add("chain.rejected", static_cast<double>(counter_sum(registry, "chain.rejected")),
             "count");
  // bft
  report.add("bft.view_changes", static_cast<double>(counter_sum(registry, "bft.view_changes")),
             "count");
  report.add("bft.timeouts_fired",
             static_cast<double>(counter_sum(registry, "bft.timeouts_fired")), "count");
  const auto [slot_p50, slot_n] = merged_histogram_p50(registry, "bft.slot_us");
  report.add("bft.slot_us_p50", slot_p50, "us", static_cast<double>(slot_n));
  // net: the bus categories the workloads produce, in a fixed list so every
  // workload prints the same metric names; anything else counts as "other".
  std::map<std::string, std::uint64_t> per_category;
  for (const char* category : {"PKT-IN", "RE-ASS", "DATA", "intra-pbft", "AGREE",
                               "final-pbft", "FINAL-AGREE", "REPLY", "other"}) {
    per_category[category] = 0;
  }
  for (const auto& [category, entry] : net.bus().stats().categories()) {
    per_category[per_category.contains(category) ? category : "other"] += entry.count;
  }
  for (const auto& [category, count] : per_category) {
    report.add("net.msgs_per_req." + category, static_cast<double>(count) / accepted, "msgs",
               std::nullopt, accepted);
  }
  report.add("net.bytes_per_req", static_cast<double>(r.bytes) / accepted, "B", std::nullopt,
             accepted);
  // sim
  const double host_run_s = static_cast<double>(net.simulator().host_run_ns()) / 1e9;
  report.add("sim.events_per_req", static_cast<double>(r.events) / accepted, "events",
             std::nullopt, accepted);
  report.add("sim.events_per_host_s",
             static_cast<double>(net.simulator().events_executed()) / std::max(host_run_s, 1e-9),
             "events/s", std::nullopt, host_run_s);
  report.add("sim.queue_high_water", static_cast<double>(net.simulator().queue_high_water()),
             "events");
  // core
  report.add("core.round_host_ms_p50", percentile(untraced_round_ms, 50), "ms",
             static_cast<double>(untraced_round_ms.size()));
  report.add("core.round_host_ms_p90", percentile(untraced_round_ms, 90), "ms",
             static_cast<double>(untraced_round_ms.size()));
  report.add("core.timeouts", static_cast<double>(r.issued - r.accepted), "count");
  report.add("core.accusations", static_cast<double>(r.accusations), "count");
  report.add("core.epochs", static_cast<double>(r.max_epoch), "count");
  const curb::obs::TraceAnalysis analysis = curb::obs::TraceAnalysis::from_tracer(obsy.tracer);
  for (const curb::obs::Phase phase : curb::obs::kPhaseOrder) {
    const auto it = analysis.phase_stats().find(phase);
    const double p50 = it == analysis.phase_stats().end() ? 0.0 : it->second.p50_us / 1000.0;
    const double n = it == analysis.phase_stats().end() ? 0.0 : it->second.count;
    report.add("core.phase." + std::string{curb::obs::to_string(phase)} + "_ms", p50, "ms", n);
  }

  {
    const curb::prof::Session session{profiler};
    for (std::string& failure : run_probes(w, args.seed, net, report)) {
      tally.correct = false;
      tally.failures.push_back("probe: " + failure);
    }
  }

  // all layers: host-time shares under the round spans of the traced networks
  std::uint64_t total_ns = 0;
  const auto shares = round_shares(profiler, &total_ns);
  for (const char* layer : {"solver", "crypto", "bus", "bft", "chain", "sim"}) {
    const auto it = shares.find(layer);
    const double ns = it == shares.end() ? 0.0 : static_cast<double>(it->second);
    report.add(std::string{"prof.share."} + layer,
               total_ns > 0 ? ns / static_cast<double>(total_ns) : 0.0, "ratio", std::nullopt,
               static_cast<double>(total_ns) / 1e9);
  }
  report.add("trace_overhead", host_rate(untraced_rates) / host_rate(traced_rates), "ratio",
             std::nullopt, host_rate(traced_rates));
  if (!args.profile_out.empty()) {
    (void)curb::prof::export_collapsed(profiler, args.profile_out);
  }
  tally.annotate(report);
  report.print(tally.correct, tally.attempted, tally.failed);
  return tally.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: curb-perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
                 "                      [--rounds R] [--profile-out FILE]\n");
    return 2;
  }
  std::optional<Workload> workload = make_workload(args->workload, args->seed);
  if (!workload) {
    std::fprintf(stderr, "curb-perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  if (args->rounds > 0) workload->rounds = args->rounds;
  // The cache is process-wide and also read from the environment at start;
  // pin it so the measured program is the same everywhere.
  curb::crypto::SigCache::instance().set_enabled(true);
  try {
    return args->trace ? run_traced(*workload, *args) : run_untraced(*workload, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curb-perfbench: %s\n", e.what());
    return 1;
  }
}
