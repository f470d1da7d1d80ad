// Primitive-level microbenchmarks (google-benchmark): the building blocks
// whose costs shape every protocol number — hashing, signatures and their
// modular inverses, Merkle trees, the LP/MILP solver, one PBFT round, and
// raw simulator throughput.

#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "curb/bft/group.hpp"
#include "curb/crypto/merkle.hpp"
#include "curb/crypto/secp256k1.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/net/link_model.hpp"
#include "curb/net/topology.hpp"
#include "curb/opt/cap.hpp"
#include "curb/opt/lp.hpp"
#include "curb/sim/simulator.hpp"

#include "common.hpp"

namespace {

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = curb::crypto::KeyPair::from_seed("bench");
  const auto digest = curb::crypto::Sha256::digest("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(digest));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = curb::crypto::KeyPair::from_seed("bench");
  const auto digest = curb::crypto::Sha256::digest("message");
  const auto sig = key.sign(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::verify(key.public_key(), digest, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdsaKeygen(benchmark::State& state) {
  // k*G plus the conversion to affine: what each controller identity costs.
  const auto d = curb::crypto::KeyPair::from_seed("bench").private_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::KeyPair::from_private(d));
  }
}
BENCHMARK(BM_EcdsaKeygen);

/// 64 seeded random nonzero values below `modulus`, the operands of the
/// inverse rows (the inverse runs in variable time, so one operand would
/// measure one path).
std::vector<curb::crypto::U256> inverse_operands(const curb::crypto::U256& modulus) {
  std::mt19937_64 rng{20261019};
  std::vector<curb::crypto::U256> out;
  while (out.size() < 64) {
    const curb::crypto::U256 a =
        curb::crypto::U256::reduce({rng(), rng(), rng(), rng()}, modulus);
    if (!a.is_zero()) out.push_back(a);
  }
  return out;
}

void BM_FieldInverse(benchmark::State& state) {
  const auto operands = inverse_operands(curb::crypto::secp256k1::field_prime());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::secp256k1::fe_inv(operands[i]));
    i = (i + 1) % operands.size();
  }
}
BENCHMARK(BM_FieldInverse);

void BM_ScalarInverse(benchmark::State& state) {
  const auto operands = inverse_operands(curb::crypto::secp256k1::group_order());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::secp256k1::sc_inv(operands[i]));
    i = (i + 1) % operands.size();
  }
}
BENCHMARK(BM_ScalarInverse);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<curb::crypto::Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(curb::crypto::Sha256::digest("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::crypto::MerkleTree::root_of(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256);

void BM_LpSolve(benchmark::State& state) {
  // Covering LP shaped like a CAP relaxation.
  const int sets = static_cast<int>(state.range(0));
  curb::opt::LpProblem p;
  std::vector<int> vars;
  for (int j = 0; j < sets; ++j) vars.push_back(p.add_variable(1.0, 0.0, 1.0));
  for (int e = 0; e < 3 * sets; ++e) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < sets; ++j) {
      if ((e + j) % 3 != 0) terms.push_back({vars[static_cast<std::size_t>(j)], 1.0});
    }
    p.add_constraint(std::move(terms), curb::opt::LpProblem::Sense::kGe, 2.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::opt::solve_lp(p));
  }
}
BENCHMARK(BM_LpSolve)->Arg(16)->Arg(64);

void BM_CapSolveInternet2(benchmark::State& state) {
  const auto topo = curb::net::internet2();
  const auto ctls = topo.nodes_of_kind(curb::net::NodeKind::kController);
  const auto sws = topo.nodes_of_kind(curb::net::NodeKind::kSwitch);
  auto inst = curb::opt::CapInstance::uniform(sws.size(), ctls.size(), 4, 1.0, 12.0);
  const curb::net::LinkModel lm;
  for (std::size_t i = 0; i < sws.size(); ++i) {
    for (std::size_t j = 0; j < ctls.size(); ++j) {
      inst.cs_delay[i][j] =
          lm.propagation_delay(topo.distance_km(sws[i], ctls[j])).as_millis_f();
    }
  }
  inst.max_cs_delay = 14.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curb::opt::solve_cap(inst));
  }
}
BENCHMARK(BM_CapSolveInternet2)->Unit(benchmark::kMillisecond);

void BM_PbftRound(benchmark::State& state) {
  const auto group_size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    curb::sim::Simulator sim;
    curb::bft::PbftGroup group{sim, {.group_size = group_size}};
    group.replica(0).propose({0x01, 0x02});
    sim.run_until(curb::sim::SimTime::millis(400));
    benchmark::DoNotOptimize(group.messages_sent());
  }
}
BENCHMARK(BM_PbftRound)->Arg(4)->Arg(7)->Arg(13);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    curb::sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(curb::sim::SimTime::micros(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEvents);

}  // namespace

// Expanded BENCHMARK_MAIN with host profiling: CURB_PROF / CURB_PROF_CHROME
// install the process profiler before any benchmark runs (common.hpp's
// bench_output() writes the profile files and prints the host summary at
// exit).
int main(int argc, char** argv) {
  (void)curb::bench::bench_output();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
