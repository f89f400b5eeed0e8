// Tests for the batched count simulator: API behavior, exact interaction
// accounting, and — the load-bearing property — distributional equivalence
// with the sequential CountSimulation at fixed parallel time, via two-sample
// chi-square tests on the final configuration across many trials.
//
// (The equivalence protocols are the epidemic and the 3-state majority
// protocol — the count-level core of the uniform-majority construction; the
// full Composed<MajorityStage> protocol is agent-level and cannot run on a
// configuration vector.)
//
// Per-seed golden runs pin the exact output of both pairing paths, so a
// refactor of the epoch pipeline that changes a single sampled bit fails
// here even when it stays distribution-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "proto/semilinear.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/count_simulation.hpp"
#include "stats/chi_square.hpp"

namespace pops {
namespace {

TEST(BatchedCountSimulation, ConservesPopulation) {
  BatchedCountSimulation sim(epidemic_spec(), 1);
  sim.set_count("S", 99);
  sim.set_count("I", 1);
  sim.steps(5000);
  EXPECT_EQ(sim.population_size(), 100u);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 100u);
}

TEST(BatchedCountSimulation, StepsAdvancesExactInteractionCount) {
  BatchedCountSimulation sim(epidemic_spec(), 2);
  sim.set_count("S", 9999);
  sim.set_count("I", 1);
  for (const std::uint64_t k : {1ull, 2ull, 17ull, 1000ull, 123457ull}) {
    const auto before = sim.interactions();
    sim.steps(k);
    EXPECT_EQ(sim.interactions(), before + k);
  }
  sim.advance_time(2.5);
  EXPECT_EQ(sim.interactions(), 1ull + 2 + 17 + 1000 + 123457 + 25000);
}

TEST(BatchedCountSimulation, EpidemicCompletes) {
  BatchedCountSimulation sim(epidemic_spec(), 7);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1.0, 1000.0);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("I"), 1000u);
}

TEST(BatchedCountSimulation, LargePopulationEpidemicCompletesFast) {
  // 10^6 agents, ~logarithmic parallel time; exercises the HRUA samplers and
  // the long-batch path end to end.
  BatchedCountSimulation sim(epidemic_spec(), 11);
  sim.set_count("S", 999999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 2.0, 200.0);
  EXPECT_GE(t, 0.0);
  EXPECT_LE(t, 60.0);  // epidemic finishes in ~2 lg n ~ 40 parallel time whp
  EXPECT_EQ(sim.count("I"), 1000000u);
}

TEST(BatchedCountSimulation, MonotoneInfectionAndDeterminism) {
  BatchedCountSimulation a(epidemic_spec(), 42), b(epidemic_spec(), 42);
  for (auto* sim : {&a, &b}) {
    sim->set_count("S", 5000);
    sim->set_count("I", 5);
  }
  std::uint64_t last = 5;
  for (int i = 0; i < 100; ++i) {
    a.steps(250);
    b.steps(250);
    EXPECT_GE(a.count("I"), last);
    last = a.count("I");
    ASSERT_EQ(a.count("I"), b.count("I")) << "same seed must agree";
  }
}

TEST(BatchedCountSimulation, StepRequiresTwoAgents) {
  FiniteSpec spec;
  spec.add("a", "a", "a", "a");
  BatchedCountSimulation sim(spec, 1);
  sim.set_count("a", 1);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

TEST(BatchedCountSimulation, RandomizedRatesRespected) {
  // Lazy epidemic (rate 0.25): infection spreads at a quarter of the pace,
  // so after fixed parallel time the infected count must sit between the
  // all-null and rate-1.0 extremes; mean conversion count checked against
  // the sequential simulator in the equivalence tests below.  (Ten initial
  // carriers: a single carrier goes untouched for 4 parallel time units in
  // ~10% of runs — seed-sensitive either way — while ten all idling is a
  // 10^-10 event.)
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.25);
  BatchedCountSimulation sim(spec, 5);
  sim.set_count("S", 100000 - 10);
  sim.set_count("I", 10);
  sim.advance_time(4.0);
  EXPECT_GT(sim.count("I"), 10u);
  EXPECT_LT(sim.count("I"), 100000u);
}

// ------------------------------------------------------------------------
// Distributional equivalence: batched and sequential simulators must induce
// statistically indistinguishable configuration distributions.
// ------------------------------------------------------------------------

template <typename Sim>
std::map<std::uint64_t, std::uint64_t> final_count_histogram(
    const FiniteSpec& spec, const std::vector<std::pair<std::string, std::uint64_t>>& init,
    const std::string& observable, double parallel_time, std::uint64_t trials,
    std::uint64_t master_seed) {
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    Sim sim(spec, trial_seed(master_seed, i));
    for (const auto& [state, c] : init) sim.set_count(state, c);
    sim.advance_time(parallel_time);
    ++histogram[sim.count(observable)];
  }
  return histogram;
}

TEST(BatchedEquivalence, EpidemicConfigurationDistribution) {
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 295}, {"I", 5}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 2.0, 4000, 0xAAA1);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 2.0, 4000, 0xBBB2);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, MajorityConfigurationDistribution) {
  // 3-state majority on a 160/140 split, observed at 3 parallel time units
  // (mid-convergence, where distributional differences would show).
  const auto spec = approximate_majority_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"x", 160}, {"y", 140}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "x", 3.0, 4000, 0xCCC3);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "x", 3.0, 4000, 0xDDD4);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, RandomizedRateConfigurationDistribution) {
  // Lazy epidemic exercises the binomial splitting of randomized cells.
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.3);
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 290}, {"I", 10}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 3.0, 4000, 0xEEE5);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 3.0, 4000, 0xFFF6);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, TinyPopulationDistribution) {
  // n = 4 stresses every edge of the collision machinery (forced collisions,
  // empty untouched pools) where an off-by-one would skew the distribution.
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 3}, {"I", 1}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 1.5, 6000, 0x1111);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 1.5, 6000, 0x2222);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

// ----------------------------------------------------------- golden runs ----

TEST(BatchedGolden, DensePathEpidemicCountsArePinned) {
  // Two occupied classes at n = 10⁹: every epoch pairs by the dense
  // contingency scan on the root stream.
  BatchedCountSimulation sim(epidemic_spec(), 0x601DE9);
  sim.set_count("S", 900'000'000);
  sim.set_count("I", 100'000'000);
  sim.steps(3'000'000);
  EXPECT_EQ(sim.count("S"), 899'458'812u);
  EXPECT_EQ(sim.count("I"), 100'541'188u);
}

TEST(BatchedGolden, ShufflePathJitCountsArePinned) {
  // Lazy log-size estimation at n = 2·10⁶: after the first few epochs the
  // occupied grid is large relative to the batch, so pairing takes the
  // shuffle path, and pairs compile on first contact.  State ids depend on
  // interning order, so the configuration is pinned by name, through an
  // FNV-1a digest of "name=count;" over the occupied states in name order.
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  BatchedCountSimulation sim(lazy, 0x601DEA);
  Rng seeder(11);
  lazy.seed_initial(sim, 2'000'000, seeder);
  sim.advance_time(10.0);
  std::map<std::string, std::uint64_t> by_name;
  const auto counts = sim.counts();
  for (std::uint32_t id = 0; id < counts.size(); ++id) {
    if (counts[id] != 0) by_name[lazy.spec().name(id)] = counts[id];
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](const std::string& text) {
    for (const unsigned char c : text) {
      digest ^= c;
      digest *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, c] : by_name) mix(name + "=" + std::to_string(c) + ";");
  EXPECT_EQ(sim.interactions(), 20'000'000u);
  EXPECT_EQ(by_name.size(), 131u);
  EXPECT_EQ(by_name["A|l3|t0|e1|g1|s0|---|o0"], 539u);
  EXPECT_EQ(digest, 0x3f8cede5659624caULL);
}

}  // namespace
}  // namespace pops
