// PAR — Partition-Into-A/S measurements (Lemma 3.2, Corollary 3.3): balance
// of the split vs the sqrt(n ln n) deviation bound, the 2e^{−2a²/n} tail, and
// completion time (O(log n) thanks to the catch-up rules).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "harness/bench_scale.hpp"
#include "harness/table.hpp"
#include "harness/trials.hpp"
#include "proto/partition.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/bounds.hpp"
#include "stats/summary.hpp"

int main() {
  using pops::Table;
  pops::banner("PAR: Partition-Into-A/S — Lemma 3.2 balance and completion time");

  const std::uint64_t trials = pops::by_scale<std::uint64_t>(20, 200, 1000);
  const std::vector<std::uint64_t> sizes{1000, 10000, 100000};

  Table table({"n", "trials", "mean_time", "time/ln(n)", "mean_|A-n/2|", "max_|A-n/2|",
               "sqrt(n*ln n)", "frac_in_[n/3,2n/3]"});
  for (const auto n : sizes) {
    pops::Summary time, dev;
    std::uint64_t in_third = 0;
    for (std::uint64_t t = 0; t < trials; ++t) {
      pops::BatchedCountSimulation sim(pops::partition_spec(), pops::trial_seed(0x9A2, n + t));
      sim.set_count("X", n);
      const double tt = sim.run_until(
          [](const pops::BatchedCountSimulation& s) { return s.count("X") == 0; }, 0.25, 1e7);
      time.add(tt);
      const double a = static_cast<double>(sim.count("A"));
      dev.add(std::abs(a - static_cast<double>(n) / 2.0));
      const double frac = a / static_cast<double>(n);
      in_third += (frac >= 1.0 / 3.0 && frac <= 2.0 / 3.0) ? 1 : 0;
    }
    const double nd = static_cast<double>(n);
    table.row({Table::num(n), Table::num(trials), Table::num(time.mean(), 2),
               Table::num(time.mean() / std::log(nd), 2), Table::num(dev.mean(), 1),
               Table::num(dev.max(), 1), Table::num(std::sqrt(nd * std::log(nd)), 1),
               Table::num(static_cast<double>(in_third) / static_cast<double>(trials), 3)});
  }
  table.print();

  // Empirical tail vs the Lemma 3.2 bound at a few deviation levels.
  Table tail({"n", "a", "Pr[|A-n/2|>=a]_MC", "bound_2e^{-2a^2/n}"});
  {
    constexpr std::uint64_t kN = 10000;
    const std::uint64_t tail_trials = pops::by_scale<std::uint64_t>(100, 1000, 5000);
    std::vector<double> devs;
    for (std::uint64_t t = 0; t < tail_trials; ++t) {
      pops::BatchedCountSimulation sim(pops::partition_spec(), pops::trial_seed(0x9A3, t));
      sim.set_count("X", kN);
      sim.run_until([](const pops::BatchedCountSimulation& s) { return s.count("X") == 0; }, 0.25,
                    1e7);
      devs.push_back(
          std::abs(static_cast<double>(sim.count("A")) - static_cast<double>(kN) / 2.0));
    }
    for (double a : {50.0, 100.0, 150.0}) {
      std::uint64_t over = 0;
      for (double d : devs) over += d >= a ? 1 : 0;
      tail.row({Table::num(kN), Table::num(a, 0),
                Table::num(static_cast<double>(over) / static_cast<double>(devs.size()), 4),
                Table::num(pops::bounds::partition_deviation_tail(kN, a), 4)});
    }
  }
  std::cout << "\ndeviation tail at n = 10000 (Lemma 3.2 is a binomial-domination bound,\n"
            << "so the MC frequency must stay below it):\n";
  tail.print();
  std::cout << "\nexpected: time/ln(n) flat; max deviation below sqrt(n ln n);\n"
            << "frac_in_[n/3,2n/3] = 1.0 (Corollary 3.3).\n";
  return 0;
}
