// ARITH — regenerates the paper's introductory complexity gap (Section 1):
//   "the transition x,q → y,y computes f(x) = 2x in expected time O(log n),
//    whereas x,x → y,q computes f(x) = floor(x/2) exponentially slower:
//    expected time O(n)"
// The table shows completion times for both protocols across sizes; doubling
// time divided by log n and halving time divided by n should both be flat.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "harness/bench_scale.hpp"
#include "harness/table.hpp"
#include "harness/trials.hpp"
#include "proto/arithmetic.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/summary.hpp"

int main() {
  using pops::Table;
  pops::banner("ARITH: the intro example — 2x in O(log n) vs floor(x/2) in O(n)");

  const std::uint64_t trials = pops::by_scale<std::uint64_t>(3, 10, 30);
  // Halving runs in Θ(n) parallel time = Θ(n²) interactions, so its sizes
  // stay modest; doubling is O(log n) and could go far larger.
  const std::vector<std::uint64_t> sizes = pops::bench_scale() == 0
                                               ? std::vector<std::uint64_t>{512, 2048}
                                               : std::vector<std::uint64_t>{512, 2048, 8192,
                                                                            16384};

  Table table({"n", "T_double(x,q->y,y)", "T_double/ln(n)", "T_halve(x,x->y,q)",
               "T_halve/n", "gap_T_halve/T_double"});
  for (const auto n : sizes) {
    pops::Summary dbl, hlv;
    const std::uint64_t halve_trials = n >= 8192 ? std::max<std::uint64_t>(2, trials / 4)
                                                 : trials;
    for (std::uint64_t t = 0; t < trials; ++t) {
      pops::BatchedCountSimulation sim(pops::doubling_spec(), pops::trial_seed(0xA21, n + t));
      sim.set_count("x", n / 3);
      sim.set_count("q", n - n / 3);
      dbl.add(sim.run_until(
          [](const pops::BatchedCountSimulation& s) { return s.count("x") == 0; }, 0.25, 1e8));
    }
    for (std::uint64_t t = 0; t < halve_trials; ++t) {
      pops::BatchedCountSimulation sim(pops::halving_spec(), pops::trial_seed(0xA22, n + t));
      sim.set_count("x", n);
      hlv.add(sim.run_until(
          [](const pops::BatchedCountSimulation& s) { return s.count("x") <= 1; }, 0.25, 1e8));
    }
    const double nd = static_cast<double>(n);
    table.row({Table::num(n), Table::num(dbl.mean(), 1),
               Table::num(dbl.mean() / std::log(nd), 2), Table::num(hlv.mean(), 1),
               Table::num(hlv.mean() / nd, 3), Table::num(hlv.mean() / dbl.mean(), 1)});
  }
  table.print();
  std::cout << "\nexpected: T_double/ln(n) and T_halve/n both roughly constant — the gap\n"
            << "column grows ~ n/log n, the exponential separation the paper's intro\n"
            << "uses to motivate 'efficient = polylog'.\n";
  return 0;
}
