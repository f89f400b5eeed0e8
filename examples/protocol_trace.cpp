// Example: watch the estimator's internal dynamics as a CSV time series.
//
// Run:  ./build/examples/protocol_trace [n] [seed] > trace.csv
//
// Samples the running Log-Size-Estimation protocol on a parallel-time grid
// and emits CSV columns for: the fraction of agents done, the mean epoch, the
// consensus logSize2, and the fraction holding an output.  Plot time vs the
// columns to see the phase structure of the protocol — the initial logSize2
// race, the staircase of epochs, and the final output epidemic.
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "core/log_size_estimation.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/stepping.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  using Sim = pops::AgentSimulation<pops::LogSizeEstimation>;
  Sim sim(pops::LogSizeEstimation{}, n, seed);

  pops::Trace<Sim> trace;
  trace
      .observe("frac_done",
               [](const Sim& s) {
                 std::uint64_t done = 0;
                 for (const auto& a : s.agents()) done += a.protocol_done ? 1 : 0;
                 return static_cast<double>(done) /
                        static_cast<double>(s.population_size());
               })
      .observe("mean_epoch",
               [](const Sim& s) {
                 double sum = 0.0;
                 for (const auto& a : s.agents()) sum += a.epoch;
                 return sum / static_cast<double>(s.population_size());
               })
      .observe("max_logSize2",
               [](const Sim& s) {
                 std::uint32_t mx = 0;
                 for (const auto& a : s.agents()) mx = std::max(mx, a.log_size2);
                 return static_cast<double>(mx);
               })
      .observe("frac_with_output", [](const Sim& s) {
        std::uint64_t has = 0;
        for (const auto& a : s.agents()) has += a.has_output ? 1 : 0;
        return static_cast<double>(has) / static_cast<double>(s.population_size());
      });

  // Sample until convergence plus a tail, on a grid adapted to the expected
  // O(log^2 n) duration.
  const double grid = 250.0;
  trace.sample(sim);
  pops::for_each_slice(sim, grid, 5e6, [&](const auto& s) {
    trace.sample(s);
    return !pops::converged(s);
  });

  trace.write_csv(std::cout);
  std::cerr << "final estimate: " << pops::estimate(sim) << " after parallel time "
            << sim.time() << " (" << trace.samples() << " samples)\n";
  return 0;
}
