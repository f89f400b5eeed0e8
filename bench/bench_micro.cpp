// MICRO — google-benchmark microbenchmarks for the simulation substrate:
// RNG, geometric sampling, pair sampling, and interactions/second of the
// agent and batched simulators.
//
// Emits machine-readable JSON by default (`--benchmark_format=console` to
// override) so `BENCH_*.json` perf-trajectory tracking can diff runs:
//   ./bench_micro --benchmark_out=BENCH_micro.json
// Simulator benchmarks expose an `interactions_per_sec` counter.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/log_size_estimation.hpp"
#include "proto/epidemic.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/rng.hpp"
#include "stats/geometric.hpp"

namespace {

void BM_RngNext(benchmark::State& state) {
  pops::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  pops::Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.below(100003));
}
BENCHMARK(BM_RngBelow);

void BM_GeometricFair(benchmark::State& state) {
  pops::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.geometric_fair());
}
BENCHMARK(BM_GeometricFair);

void BM_OrderedPair(benchmark::State& state) {
  pops::Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(rng.ordered_pair(100000));
}
BENCHMARK(BM_OrderedPair);

void BM_MaxGeometricExact(benchmark::State& state) {
  pops::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pops::max_geometric_exact(static_cast<std::uint64_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_MaxGeometricExact)->Arg(1000)->Arg(1000000);

void BM_ValueEpidemicInteractions(benchmark::State& state) {
  pops::AgentSimulation<pops::ValueEpidemic> sim(pops::ValueEpidemic{},
                                                 static_cast<std::uint64_t>(state.range(0)),
                                                 7);
  for (auto _ : state) sim.steps(1024);
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.interactions()));
  state.counters["interactions_per_sec"] = benchmark::Counter(
      static_cast<double>(sim.interactions()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ValueEpidemicInteractions)->Arg(1000)->Arg(100000);

void BM_LogSizeEstimationInteractions(benchmark::State& state) {
  pops::AgentSimulation<pops::LogSizeEstimation> sim(
      pops::LogSizeEstimation{}, static_cast<std::uint64_t>(state.range(0)), 8);
  for (auto _ : state) sim.steps(1024);
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.interactions()));
  state.counters["interactions_per_sec"] = benchmark::Counter(
      static_cast<double>(sim.interactions()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LogSizeEstimationInteractions)->Arg(1000)->Arg(100000);

void BM_BatchedCountSimulationInteractions(benchmark::State& state) {
  pops::BatchedCountSimulation sim(pops::epidemic_spec(), 10);
  sim.set_count("S", static_cast<std::uint64_t>(state.range(0)) - 1);
  sim.set_count("I", 1);
  // Step in chunks much larger than the ~0.89*sqrt(n) epoch length so the
  // budget never truncates a batch.
  const std::uint64_t chunk = 1 << 20;
  for (auto _ : state) {
    // Reset once the epidemic saturates so batches stay representative.
    if (sim.count("S") == 0) {
      sim.set_count("S", static_cast<std::uint64_t>(state.range(0)) - 1);
      sim.set_count("I", 1);
    }
    sim.steps(chunk);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.interactions()));
  state.counters["interactions_per_sec"] = benchmark::Counter(
      static_cast<double>(sim.interactions()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedCountSimulationInteractions)->Arg(1000000)->Arg(100000000);

}  // namespace

// Custom main: default to JSON output (machine-readable perf trajectory);
// any explicit --benchmark_format flag wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_format = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_format", 18) == 0) has_format = true;
  }
  static std::string json_flag = "--benchmark_format=json";
  if (!has_format) args.push_back(json_flag.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
