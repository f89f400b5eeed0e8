// EPI — epidemic completion times vs the paper's bounds (Lemma A.1,
// Corollaries 3.4/3.5): E[T] = ((n−1)/n) H_{n−1} ≈ ln n; upper tail
// Pr[T > 24 ln n] < 4 n^{−5}; subpopulation (a = n/3) epidemics complete
// within 24 ln a w.p. >= 1 − 27 n^{−3} and are a constant factor slower.
//
// Runs on `BatchedCountSimulation` (Θ(√n) interactions per RNG epoch),
// which is what makes the n = 10^5–10^6 rows cheap.
// Trials fan out over threads via run_trials_parallel: per-trial seed
// streams depend only on (master seed, index), so results are identical
// whatever the thread count.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "harness/bench_scale.hpp"
#include "harness/table.hpp"
#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/bounds.hpp"
#include "stats/summary.hpp"

namespace {

using Sim = pops::BatchedCountSimulation;

double full_epidemic_time(std::uint64_t n, std::uint64_t seed) {
  Sim sim(pops::epidemic_spec(), seed);
  sim.set_count("S", n - 1);
  sim.set_count("I", 1);
  return sim.run_until([](const Sim& s) { return s.count("S") == 0; }, 0.25, 1e7);
}

double subpopulation_epidemic_time(std::uint64_t n, std::uint64_t seed) {
  const std::uint64_t active = n / 3;
  Sim sim(pops::subpopulation_epidemic_spec(), seed);
  sim.set_count("S", active - 1);
  sim.set_count("I", 1);
  sim.set_count("B", n - active);
  return sim.run_until([](const Sim& s) { return s.count("S") == 0; }, 0.25, 1e7);
}

void run(std::uint64_t trials, const std::vector<std::uint64_t>& sizes) {
  using pops::Table;

  Table full({"n", "mean_T", "E[T]_lemmaA1", "max_T", "24*ln(n)", "tail_viol"});
  for (const auto n : sizes) {
    const auto times = pops::run_trials_parallel(
        trials, 0xE21 + n,
        [&](std::uint64_t seed, std::uint64_t) { return full_epidemic_time(n, seed); });
    pops::Summary s;
    std::uint64_t violations = 0;
    const double cap = 24.0 * std::log(static_cast<double>(n));
    for (const double v : times) {
      s.add(v);
      violations += v > cap ? 1 : 0;
    }
    full.row({Table::num(n), Table::num(s.mean(), 2),
              Table::num(pops::bounds::epidemic_expected_time(n), 2),
              Table::num(s.max(), 2), Table::num(cap, 1), Table::num(violations)});
  }
  std::cout << "\nfull-population epidemic (i,j -> j,j):\n";
  full.print();

  Table sub({"n", "a=n/3", "mean_T", "max_T", "24*ln(a)", "mean_slowdown_vs_full"});
  for (const auto n : sizes) {
    if (n > 100000) continue;  // subpopulation runs are ~9x slower
    const std::uint64_t a = n / 3;
    const auto sub_times = pops::run_trials_parallel(
        trials, 0xE22 + n, [&](std::uint64_t seed, std::uint64_t) {
          return subpopulation_epidemic_time(n, seed);
        });
    const auto full_times = pops::run_trials_parallel(
        trials, 0xE23 + n,
        [&](std::uint64_t seed, std::uint64_t) { return full_epidemic_time(n, seed); });
    pops::Summary s, f;
    for (const double v : sub_times) s.add(v);
    for (const double v : full_times) f.add(v);
    sub.row({Table::num(n), Table::num(a), Table::num(s.mean(), 2), Table::num(s.max(), 2),
             Table::num(24.0 * std::log(static_cast<double>(a)), 1),
             Table::num(s.mean() / f.mean(), 2)});
  }
  std::cout << "\nsubpopulation epidemic among a = n/3 agents (Corollary 3.4 setting):\n";
  sub.print();
  std::cout << "\nexpected: mean_T tracks E[T] ~ ln n; no tail violations; subpopulation\n"
            << "slowdown a constant factor (theory: ~n^2/a^2 / (n/a) interactions ratio).\n";
}

}  // namespace

int main() {
  pops::banner("EPI: epidemic completion time vs Lemma A.1 / Corollaries 3.4-3.5");

  const std::uint64_t trials = pops::by_scale<std::uint64_t>(10, 40, 100);
  const std::vector<std::uint64_t> sizes = pops::bench_scale() == 0
                                               ? std::vector<std::uint64_t>{1000, 10000}
                                               : std::vector<std::uint64_t>{1000, 10000,
                                                                            100000, 1000000};

  run(trials, sizes);
  return 0;
}
