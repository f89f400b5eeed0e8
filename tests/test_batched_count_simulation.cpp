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
// Per-seed golden runs pin the exact output of all three batch samplers, so
// a refactor of the epoch pipeline that changes a single sampled bit fails
// here even when it stays distribution-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

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
  // dt·n must be a finite interaction count below 2⁶⁴.
  EXPECT_THROW(sim.advance_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim.advance_time(1e16), std::invalid_argument);  // 10²⁰ ≥ 2⁶⁴
  EXPECT_EQ(sim.interactions(), 1ull + 2 + 17 + 1000 + 123457 + 25000);
}

/// Both count simulators keep the population below 2⁶³: set_count rejects a
/// total at or above it, leaves the configuration untouched when it does,
/// and a population just under the ceiling still steps.
template <typename Sim>
void expect_population_ceiling() {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 62;
  Sim sim(epidemic_spec(), 3);
  sim.set_count("S", kHalf);
  EXPECT_THROW(sim.set_count("I", kHalf), std::invalid_argument);  // total 2⁶³
  EXPECT_THROW(sim.set_count("I", ~std::uint64_t{0}), std::invalid_argument);
  EXPECT_EQ(sim.population_size(), kHalf);
  sim.set_count("I", kHalf - 1);  // total 2⁶³ − 1
  EXPECT_THROW(sim.set_count("S", kHalf + 1), std::invalid_argument);
  sim.set_count("S", kHalf - 1);  // lowering a count frees room
  EXPECT_EQ(sim.population_size(), 2 * kHalf - 2);
  sim.steps(1000);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 2 * kHalf - 2);
  EXPECT_EQ(sim.interactions(), 1000u);
}

TEST(CountSimulations, SetCountRejectsPopulationOf2To63) {
  expect_population_ceiling<CountSimulation>();
  expect_population_ceiling<BatchedCountSimulation>();
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

/// Final-configuration histogram keyed by the counts of the `observed`
/// states (mixed radix n + 1) after `interactions` interactions, run as
/// `steps(chunk)` calls — each call truncates its epochs at the chunk; 0
/// runs them in one call.  For the batched simulator, `sequential_epochs`
/// accumulates how many epochs took the short-epoch sampler.
template <typename Sim>
std::map<std::uint64_t, std::uint64_t> final_count_histogram(
    const FiniteSpec& spec, const std::vector<std::pair<std::string, std::uint64_t>>& init,
    const std::vector<std::string>& observed, std::uint64_t interactions,
    std::uint64_t trials, std::uint64_t master_seed, std::uint64_t chunk = 0,
    std::uint64_t* sequential_epochs = nullptr) {
  if (chunk == 0) chunk = interactions;
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    Sim sim(spec, trial_seed(master_seed, i));
    for (const auto& [state, c] : init) sim.set_count(state, c);
    for (std::uint64_t done = 0; done < interactions; done += chunk) {
      sim.steps(std::min(chunk, interactions - done));
    }
    std::uint64_t key = 0;
    for (const auto& state : observed) {
      key = key * (sim.population_size() + 1) + sim.count(state);
    }
    ++histogram[key];
    if constexpr (std::is_same_v<Sim, BatchedCountSimulation>) {
      if (sequential_epochs != nullptr) *sequential_epochs += sim.stats().sequential;
    }
  }
  return histogram;
}

void expect_equivalent(const std::map<std::uint64_t, std::uint64_t>& sequential,
                       const std::map<std::uint64_t, std::uint64_t>& batched) {
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, EpidemicConfigurationDistribution) {
  // 300 agents to parallel time 2.
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 295}, {"I", 5}};
  expect_equivalent(
      final_count_histogram<CountSimulation>(spec, init, {"I"}, 600, 4000, 0xAAA1),
      final_count_histogram<BatchedCountSimulation>(spec, init, {"I"}, 600, 4000, 0xBBB2));
}

TEST(BatchedEquivalence, MajorityConfigurationDistribution) {
  // 3-state majority on a 160/140 split, observed at 3 parallel time units
  // (mid-convergence, where distributional differences would show).
  const auto spec = approximate_majority_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"x", 160}, {"y", 140}};
  expect_equivalent(
      final_count_histogram<CountSimulation>(spec, init, {"x"}, 900, 4000, 0xCCC3),
      final_count_histogram<BatchedCountSimulation>(spec, init, {"x"}, 900, 4000, 0xDDD4));
}

TEST(BatchedEquivalence, RandomizedRateConfigurationDistribution) {
  // Lazy epidemic exercises the binomial splitting of randomized cells
  // (300 agents to parallel time 3).
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.3);
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 290}, {"I", 10}};
  expect_equivalent(
      final_count_histogram<CountSimulation>(spec, init, {"I"}, 900, 4000, 0xEEE5),
      final_count_histogram<BatchedCountSimulation>(spec, init, {"I"}, 900, 4000, 0xFFF6));
}

TEST(BatchedEquivalence, TinyPopulationDistribution) {
  // n = 4 stresses every edge of the collision machinery (forced collisions,
  // empty untouched pools) where an off-by-one would skew the distribution.
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 3}, {"I", 1}};
  expect_equivalent(
      final_count_histogram<CountSimulation>(spec, init, {"I"}, 6, 6000, 0x1111),
      final_count_histogram<BatchedCountSimulation>(spec, init, {"I"}, 6, 6000, 0x2222));
}

// ------------------------------------------------------------------------
// Short-epoch (sequential) sampler: small n next to many occupied classes
// sends epochs agent by agent.  Each test also asserts the path fired.
// ------------------------------------------------------------------------

/// Five-state cycle with randomized cells: (a, b) leaves residual null mass
/// 0.3, (b, c) and (d, e) are full-mass cells (the clamped `pick`).
FiniteSpec randomized_cycle_spec() {
  FiniteSpec spec;
  spec.add("a", "b", "b", "b", 0.4);
  spec.add("a", "b", "c", "c", 0.3);
  spec.add("b", "c", "c", "d", 0.25);
  spec.add("b", "c", "a", "a", 0.75);
  spec.add("c", "a", "a", "e");
  spec.add("d", "e", "a", "b", 0.5);
  spec.add("d", "e", "e", "e", 0.5);
  spec.add_symmetric("e", "a", "b", "c", 0.6);
  spec.add("c", "d", "d", "a", 0.2);
  return spec;
}

TEST(BatchedSequentialPath, RandomizedCellsMatchCountSimulation) {
  // n = 300: √(πn/8) ≈ 10.9 < 3 · occupancy whenever four or more of the
  // five classes are occupied.
  const auto spec = randomized_cycle_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{
      {"a", 100}, {"b", 80}, {"c", 60}, {"d", 40}, {"e", 20}};
  const std::vector<std::string> observed{"a", "c"};
  std::uint64_t sequential_epochs = 0;
  const auto reference = final_count_histogram<CountSimulation>(
      spec, init, observed, 900, 4000, 0x5E01);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, observed, 900, 4000, 0x5E02, 0, &sequential_epochs);
  EXPECT_GT(sequential_epochs, 0u);
  expect_equivalent(reference, batched);
}

TEST(BatchedSequentialPath, SingletonClassesMatchCountSimulation) {
  // n = 8 agents in eight singleton classes: nearly every draw after the
  // first lands on an agent already in the batch and is redrawn, and a
  // collision-free run can use all 2t = n agents.
  FiniteSpec spec;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      spec.add("s" + std::to_string(i), "s" + std::to_string(j),
               "s" + std::to_string((i + j + 1) / 2), "s" + std::to_string((i + j) / 2));
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> init;
  for (int i = 0; i < 8; ++i) init.emplace_back("s" + std::to_string(i), 1);
  const std::vector<std::string> observed{"s2", "s3", "s4", "s5"};
  std::uint64_t sequential_epochs = 0;
  const auto reference = final_count_histogram<CountSimulation>(
      spec, init, observed, 6, 6000, 0x5E03);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, observed, 6, 6000, 0x5E04, 0, &sequential_epochs);
  EXPECT_GT(sequential_epochs, 0u);
  expect_equivalent(reference, batched);
}

TEST(BatchedSequentialPath, TruncatedEpochsMatchCountSimulation) {
  // steps(1) runs single-interaction epochs; steps(3) truncates at 3, so
  // roughly one epoch in five ends in a collision resolved after a
  // sequential prefix (n = 60: P(L > 3) ≈ 0.81).
  const auto spec = randomized_cycle_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{
      {"a", 20}, {"b", 16}, {"c", 12}, {"d", 8}, {"e", 4}};
  const std::vector<std::string> observed{"a", "c"};
  const auto reference = final_count_histogram<CountSimulation>(
      spec, init, observed, 120, 4000, 0x5E05);
  for (const std::uint64_t chunk : {1ull, 3ull}) {
    std::uint64_t sequential_epochs = 0;
    const auto batched = final_count_histogram<BatchedCountSimulation>(
        spec, init, observed, 120, 4000, 0x5E06 + chunk, chunk, &sequential_epochs);
    EXPECT_GT(sequential_epochs, 0u) << "chunk " << chunk;
    expect_equivalent(reference, batched);
  }
}

// ----------------------------------------------------------- golden runs ----

/// FNV-1a digest of "name=count;" over the occupied states in name order:
/// state ids depend on JIT interning order, names do not.
template <typename Lazy>
std::uint64_t digest_by_name(const Lazy& lazy, const BatchedCountSimulation& sim,
                             std::map<std::string, std::uint64_t>& by_name) {
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
  return digest;
}

TEST(BatchedGolden, DensePathEpidemicCountsArePinned) {
  // Two occupied classes at n = 10⁹: every epoch pairs by the dense
  // contingency scan on the root stream.
  BatchedCountSimulation sim(epidemic_spec(), 0x601DE9);
  sim.set_count("S", 900'000'000);
  sim.set_count("I", 100'000'000);
  sim.steps(3'000'000);
  EXPECT_EQ(sim.count("S"), 899'458'812u);
  EXPECT_EQ(sim.count("I"), 100'541'188u);
  EXPECT_EQ(sim.stats().sequential, 0u);
  EXPECT_GT(sim.stats().dense, 0u);
}

TEST(BatchedGolden, ShufflePathJitCountsArePinned) {
  // Lazy log-size estimation at n = 2·10⁶: after the first few epochs the
  // occupied grid is large relative to the batch, so pairing takes the
  // shuffle path, and pairs compile on first contact.  State ids depend on
  // interning order, so the configuration is pinned by name.
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  BatchedCountSimulation sim(lazy, 0x601DEA);
  Rng seeder(11);
  lazy.seed_initial(sim, 2'000'000, seeder);
  sim.advance_time(10.0);
  std::map<std::string, std::uint64_t> by_name;
  const std::uint64_t digest = digest_by_name(lazy, sim, by_name);
  EXPECT_EQ(sim.interactions(), 20'000'000u);
  EXPECT_EQ(by_name.size(), 131u);
  EXPECT_EQ(by_name["A|l3|t0|e1|g1|s0|---|o0"], 539u);
  EXPECT_EQ(digest, 0x3f8cede5659624caULL);
  EXPECT_EQ(sim.stats().sequential, 0u);
  EXPECT_GT(sim.stats().shuffle, 0u);
}

TEST(BatchedGolden, SequentialPathJitCountsArePinned) {
  // Lazy log-size estimation at n = 5·10³: √(πn/8) ≈ 44 is below three
  // times the occupancy while 15 or more classes are occupied, so most
  // epochs take the short-epoch sampler on the joint stream; as the run
  // converges the occupancy falls and the shuffle and dense paths take over.
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  BatchedCountSimulation sim(lazy, 0x601DEB);
  Rng seeder(12);
  lazy.seed_initial(sim, 5'000, seeder);
  sim.advance_time(20.0);
  std::map<std::string, std::uint64_t> by_name;
  const std::uint64_t digest = digest_by_name(lazy, sim, by_name);
  EXPECT_EQ(sim.interactions(), 100'000u);
  EXPECT_EQ(sim.stats().epochs, 2229u);
  EXPECT_EQ(sim.stats().sequential, 2037u);
  EXPECT_EQ(sim.stats().shuffle, 118u);
  EXPECT_EQ(sim.stats().dense, 74u);
  EXPECT_EQ(by_name.size(), 7u);
  EXPECT_EQ(by_name["A|l3|t12|e3|g1|s0|DUO|o3"], 2492u);
  EXPECT_EQ(digest, 0x480ce940b4bfc016ULL);
}

}  // namespace
}  // namespace pops
