// BATCHED — throughput sweep of the two engines on the epidemic protocol:
// per-agent (AgentSimulation<ValueEpidemic>) and batched count
// (BatchedCountSimulation), across population sizes n = 10^4 … 10^9.
//
// The point of the figure: per-agent throughput is flat in n (O(1) per
// interaction), while batched throughput *grows* with n — Θ(√n)
// interactions per epoch — which is what makes the paper's
// n = 10^8–10^12 parallel-time experiments reachable.
//
// Output is machine-readable JSON (one result object per engine × n;
// batched rows carry a `stats` object — epochs, which batch sampler each
// took, and the sequential sampler's redraws) for BENCH_*.json
// perf-trajectory tracking:
//   ./bench_batched [--max-n=N] > BENCH_batched.json
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <string>
#include <thread>

#include "core/executor.hpp"
#include "proto/epidemic.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/batched_count_simulation.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Seed a fresh epidemic (n-1 susceptible, 1 infected).
void reset_epidemic(pops::BatchedCountSimulation& sim, std::uint64_t n) {
  sim.set_count("S", n - 1);
  sim.set_count("I", 1);
}

double run_count_workload(pops::BatchedCountSimulation& sim, std::uint64_t n,
                          std::uint64_t interactions) {
  // Re-seed whenever the epidemic saturates so measured batches stay
  // representative of live dynamics rather than the all-null steady state.
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  const std::uint64_t chunk = std::max<std::uint64_t>(interactions / 64, 1);
  while (done < interactions) {
    if (sim.count("S") == 0) reset_epidemic(sim, n);
    const std::uint64_t step = std::min(chunk, interactions - done);
    sim.steps(step);
    done += step;
  }
  return seconds_since(start);
}

struct Result {
  const char* simulator;
  std::uint64_t n;
  std::uint64_t interactions;
  double seconds;
  const pops::BatchedCountSimulation::Stats* stats = nullptr;  ///< batched only
};

bool first_result = true;

void emit(const Result& r) {
  std::printf("%s    {\"simulator\": \"%s\", \"n\": %" PRIu64
              ", \"interactions\": %" PRIu64
              ", \"seconds\": %.6f, \"interactions_per_sec\": %.6e",
              first_result ? "" : ",\n", r.simulator, r.n, r.interactions,
              r.seconds, static_cast<double>(r.interactions) / r.seconds);
  if (r.stats != nullptr) {
    std::printf(", \"stats\": {\"epochs\": %" PRIu64 ", \"sequential\": %" PRIu64
                ", \"shuffle\": %" PRIu64 ", \"dense\": %" PRIu64
                ", \"redraws\": %" PRIu64 "}",
                r.stats->epochs, r.stats->sequential, r.stats->shuffle, r.stats->dense,
                r.stats->redraws);
  }
  std::printf("}");
  first_result = false;
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t max_n = 1000000000ULL;  // 10^9
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = std::strtoull(argv[i] + 8, nullptr, 10);
    }
  }
  constexpr std::uint64_t kAgentSimMaxN = 10000000ULL;  // 8 B/agent: keep RAM sane
  constexpr std::uint64_t kSequentialWork = 4000000ULL;

  std::printf("{\n  \"bench\": \"bench_batched\",\n  \"protocol\": \"epidemic\",\n");
  // Header records the machine's thread budget and the process-wide
  // executor's effective width (POPS_THREADS / Executor::set_threads), so
  // perf diffs across PRs compare like with like (scripts/bench_regen.sh
  // commits this output; scripts/bench_diff.py keys on it).
  std::printf("  \"hardware_concurrency\": %u,\n  \"executor_threads\": %u,\n",
              std::max(1u, std::thread::hardware_concurrency()),
              pops::Executor::instance().threads());
  std::printf("  \"results\": [\n");
  for (std::uint64_t n = 10000; n <= max_n; n *= 10) {
    if (n <= kAgentSimMaxN) {
      pops::AgentSimulation<pops::ValueEpidemic> sim(pops::ValueEpidemic{}, n, 17);
      const auto start = std::chrono::steady_clock::now();
      sim.steps(kSequentialWork);
      emit({"agent", n, kSequentialWork, seconds_since(start)});
    }
    {
      pops::BatchedCountSimulation sim(pops::epidemic_spec(), 23);
      reset_epidemic(sim, n);
      // Scale the workload with n: at least ~300 epochs' worth (epoch length
      // is ~0.89*sqrt(n)), and never less than the sequential workload.
      const std::uint64_t work =
          std::max(kSequentialWork, 8 * n);
      const double secs = run_count_workload(sim, n, work);
      emit({"batched", n, work, secs, &sim.stats()});
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
