// Tests for the batched count simulator: API behavior, exact interaction
// accounting, and — the load-bearing property — distributional equivalence
// with the agent-level table oracle (`AgentSimulation<TableProtocol>`,
// sim/table_protocol.hpp) at fixed parallel time, via two-sample chi-square
// tests on the final configuration across many trials.  The oracle's own
// tests come first.
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
#include <vector>

#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "proto/semilinear.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/table_protocol.hpp"
#include "sim/trace.hpp"
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

TEST(BatchedCountSimulation, SetCountRejectsPopulationOf2To63) {
  // set_count rejects a total at or above 2⁶³, leaves the configuration
  // untouched when it does, and a population just under the ceiling still
  // steps.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 62;
  BatchedCountSimulation sim(epidemic_spec(), 3);
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

/// Step `k` interactions and check the exact invariants: interactions()
/// advanced by k, and the counts — none wrapped below zero — sum to n.
void expect_steps_conserve(BatchedCountSimulation& sim, std::uint64_t n, std::uint64_t k) {
  const std::uint64_t before = sim.interactions();
  sim.steps(k);
  EXPECT_EQ(sim.interactions(), before + k);
  EXPECT_EQ(sim.population_size(), n);
  std::uint64_t total = 0;
  for (const std::uint64_t c : sim.counts()) {
    EXPECT_LE(c, n);
    total += c;
  }
  EXPECT_EQ(total, n);
}

TEST(BatchedCountSimulation, SetCountBetweenStepsMayChangePopulation) {
  // Each set_count after stepping changes n, which re-keys the cached
  // survival constants; n = 10⁹ moves the epochs onto the dense path.
  BatchedCountSimulation sim(epidemic_spec(), 31);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  for (const std::uint64_t k : {1ull, 40ull, 3000ull}) expect_steps_conserve(sim, 1000, k);
  sim.set_count("S", 1'000'000'000);
  const std::uint64_t grown = 1'000'000'000 + sim.count("I");
  for (const std::uint64_t k : {1ull, 40ull, 300000ull}) expect_steps_conserve(sim, grown, k);
  sim.set_count("I", 7);
  const std::uint64_t shrunk = sim.count("S") + 7;
  for (const std::uint64_t k : {1ull, 40ull, 300000ull}) expect_steps_conserve(sim, shrunk, k);
  EXPECT_GT(sim.stats().dense, 0u);
}

TEST(BatchedCountSimulation, JitSetCountBetweenStepsMayChangePopulation) {
  // Lazy log-size estimation at n = 5·10³ runs mostly agent-by-agent
  // epochs; re-seeding mid-run grows n, then empties the largest class.
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  BatchedCountSimulation sim(lazy, 32);
  Rng seeder(33);
  lazy.seed_initial(sim, 5'000, seeder);
  for (const std::uint64_t k : {1ull, 40ull, 30000ull}) expect_steps_conserve(sim, 5'000, k);
  sim.set_count(0, sim.count(0) + 20'000);
  for (const std::uint64_t k : {1ull, 40ull, 30000ull}) expect_steps_conserve(sim, 25'000, k);
  const auto counts = sim.counts();
  const auto largest = static_cast<std::uint32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const std::uint64_t shrunk = 25'000 - counts[largest];
  sim.set_count(largest, 0);
  for (const std::uint64_t k : {1ull, 40ull, 30000ull}) expect_steps_conserve(sim, shrunk, k);
  EXPECT_GT(sim.stats().sequential, 0u);
}

TEST(BatchedCountSimulation, EpidemicCompletes) {
  BatchedCountSimulation sim(epidemic_spec(), 7);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1.0, 1000.0);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("I"), 1000u);
  // check_dt * n < 1 truncates every check interval to 0 interactions, so
  // time() could never reach the cap: refuse instead of spinning forever.
  BatchedCountSimulation tiny_dt(epidemic_spec(), 7);
  tiny_dt.set_count("S", 999);
  tiny_dt.set_count("I", 1);
  EXPECT_THROW(tiny_dt.run_until(
                   [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1e-4,
                   1.0),
               std::invalid_argument);
  // An engine with no agents loaded — fresh or reset — has no parallel time
  // (0/0), and the predicate already holds on it: refuse, don't return.
  BatchedCountSimulation empty(epidemic_spec(), 7);
  EXPECT_THROW(empty.run_until(
                   [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1.0,
                   1000.0),
               std::invalid_argument);
  sim.reset(8);
  EXPECT_THROW(sim.run_until(
                   [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1.0,
                   1000.0),
               std::invalid_argument);
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
  EXPECT_THROW(sim.steps(1000), std::invalid_argument);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(BatchedCountSimulation, RandomizedTransitionRatesRespected) {
  // a,b -> c,b with rate 0.25 from 1 a and 9 b: a step meets (a, b) with
  // probability 2 · 1 · 9 / (10 · 9) = 0.2 and converts with 0.05, so the
  // steps to conversion are geometric with mean 20.  Every step is a
  // one-interaction epoch.
  FiniteSpec spec;
  spec.add_symmetric("a", "b", "c", "b", 0.25);
  double total_steps = 0.0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    BatchedCountSimulation sim(spec, 100 + trial);
    sim.set_count("a", 1);
    sim.set_count("b", 9);
    while (sim.count("c") == 0) sim.step();
    total_steps += static_cast<double>(sim.interactions());
  }
  EXPECT_NEAR(total_steps / kTrials, 20.0, 3.0);
}

TEST(BatchedCountSimulation, RandomizedRatesRespected) {
  // Lazy epidemic (rate 0.25): infection spreads at a quarter of the pace,
  // so after fixed parallel time the infected count must sit between the
  // all-null and rate-1.0 extremes; mean conversion count checked against
  // the table oracle in the equivalence tests below.  (Ten initial
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
// The table oracle itself: AgentSimulation<TableProtocol>.
// ------------------------------------------------------------------------

TEST(TableProtocol, RandomizedRatesRespected) {
  // The residual-mass cell of RandomizedTransitionRatesRespected, agent by
  // agent: 1 a among 10 agents converts after 20 steps on average.
  FiniteSpec spec;
  spec.add_symmetric("a", "b", "c", "b", 0.25);
  const TableProtocol proto(spec);
  double total_steps = 0.0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    AgentSimulation<TableProtocol> sim(proto, 10, 100 + trial);  // all in state 0 = a
    for (std::uint64_t i = 1; i < 10; ++i) sim.set_state(i, spec.id("b"));
    while (state_counts(sim)[spec.id("c")] == 0) sim.step();
    total_steps += static_cast<double>(sim.interactions());
  }
  EXPECT_NEAR(total_steps / kTrials, 20.0, 3.0);
}

TEST(TableProtocol, JitInternsStatesAndTrippedGuardThrows) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  ASSERT_EQ(lazy.num_states(), 1u);  // just the initial X state, id 0
  AgentSimulation<TableProtocol> sim(TableProtocol(lazy), 5000, 0x5EED);
  sim.steps(200000);
  EXPECT_GT(lazy.num_states(), 20u);
  std::uint64_t total = 0;
  for (const auto c : state_counts(sim)) total += c;
  EXPECT_EQ(total, 5000u);

  CompileOptions opts;
  opts.max_pairs = 3;
  LazyCompiledSpec<Bounded<LogSizeEstimation>> guarded(proto, proto.geometric_cap(), opts);
  AgentSimulation<TableProtocol> tripped(TableProtocol(guarded), 1000, 1);
  EXPECT_THROW(tripped.advance_time(10.0), std::invalid_argument);
}

// ------------------------------------------------------------------------
// Distributional equivalence: the batched engine and the table oracle must
// induce statistically indistinguishable configuration distributions.
// ------------------------------------------------------------------------

using Init = std::vector<std::pair<std::string, std::uint64_t>>;

/// Histogram key: the counts of the `observed` states in mixed radix n + 1.
std::uint64_t observed_key(const FiniteSpec& spec, const std::vector<std::uint64_t>& counts,
                           const std::vector<std::string>& observed, std::uint64_t n) {
  std::uint64_t key = 0;
  for (const auto& state : observed) key = key * (n + 1) + counts[spec.id(state)];
  return key;
}

/// Batched final-configuration histogram after `interactions` interactions,
/// run as `steps(chunk)` calls — each call truncates its epochs at the
/// chunk; 0 runs them in one call.  `sequential_epochs` accumulates how
/// many epochs took the short-epoch sampler.
std::map<std::uint64_t, std::uint64_t> final_count_histogram(
    const FiniteSpec& spec, const Init& init, const std::vector<std::string>& observed,
    std::uint64_t interactions, std::uint64_t trials, std::uint64_t master_seed,
    std::uint64_t chunk = 0, std::uint64_t* sequential_epochs = nullptr) {
  if (chunk == 0) chunk = interactions;
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    BatchedCountSimulation sim(spec, trial_seed(master_seed, i));
    for (const auto& [state, c] : init) sim.set_count(state, c);
    for (std::uint64_t done = 0; done < interactions; done += chunk) {
      sim.steps(std::min(chunk, interactions - done));
    }
    ++histogram[observed_key(spec, sim.counts(), observed, sim.population_size())];
    if (sequential_epochs != nullptr) *sequential_epochs += sim.stats().sequential;
  }
  return histogram;
}

/// The same histogram on the table oracle, one table shared by all trials.
std::map<std::uint64_t, std::uint64_t> oracle_count_histogram(
    const FiniteSpec& spec, const Init& init, const std::vector<std::string>& observed,
    std::uint64_t interactions, std::uint64_t trials, std::uint64_t master_seed) {
  const TableProtocol proto(spec);
  std::uint64_t n = 0;
  for (const auto& [state, c] : init) n += c;
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    AgentSimulation<TableProtocol> sim(proto, n, trial_seed(master_seed, i));
    std::uint64_t agent = 0;
    for (const auto& [state, c] : init) {
      for (std::uint64_t k = 0; k < c; ++k) sim.set_state(agent++, spec.id(state));
    }
    sim.steps(interactions);
    ++histogram[observed_key(spec, state_counts(sim), observed, n)];
  }
  return histogram;
}

void expect_equivalent(const std::map<std::uint64_t, std::uint64_t>& oracle,
                       const std::map<std::uint64_t, std::uint64_t>& batched) {
  const auto verdict = two_sample_chi_square(oracle, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, EpidemicConfigurationDistribution) {
  // 300 agents to parallel time 2.
  const auto spec = epidemic_spec();
  const Init init{{"S", 295}, {"I", 5}};
  expect_equivalent(
      oracle_count_histogram(spec, init, {"I"}, 600, 4000, 0xAAA1),
      final_count_histogram(spec, init, {"I"}, 600, 4000, 0xBBB2));
}

TEST(BatchedEquivalence, MajorityConfigurationDistribution) {
  // 3-state majority on a 160/140 split, observed at 3 parallel time units
  // (mid-convergence, where distributional differences would show).
  const auto spec = approximate_majority_spec();
  const Init init{{"x", 160}, {"y", 140}};
  expect_equivalent(
      oracle_count_histogram(spec, init, {"x"}, 900, 4000, 0xCCC3),
      final_count_histogram(spec, init, {"x"}, 900, 4000, 0xDDD4));
}

TEST(BatchedEquivalence, RandomizedRateConfigurationDistribution) {
  // Lazy epidemic exercises the binomial splitting of randomized cells
  // (300 agents to parallel time 3).
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.3);
  const Init init{{"S", 290}, {"I", 10}};
  expect_equivalent(
      oracle_count_histogram(spec, init, {"I"}, 900, 4000, 0xEEE5),
      final_count_histogram(spec, init, {"I"}, 900, 4000, 0xFFF6));
}

TEST(BatchedEquivalence, TinyPopulationDistribution) {
  // n = 4 stresses every edge of the collision machinery (forced collisions,
  // empty untouched pools) where an off-by-one would skew the distribution.
  const auto spec = epidemic_spec();
  const Init init{{"S", 3}, {"I", 1}};
  expect_equivalent(
      oracle_count_histogram(spec, init, {"I"}, 6, 6000, 0x1111),
      final_count_histogram(spec, init, {"I"}, 6, 6000, 0x2222));
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

TEST(BatchedSequentialPath, RandomizedCellsMatchAgentOracle) {
  // n = 300: √(πn/8) ≈ 10.9 < 3 · occupancy whenever four or more of the
  // five classes are occupied.
  const auto spec = randomized_cycle_spec();
  const Init init{
      {"a", 100}, {"b", 80}, {"c", 60}, {"d", 40}, {"e", 20}};
  const std::vector<std::string> observed{"a", "c"};
  std::uint64_t sequential_epochs = 0;
  const auto reference = oracle_count_histogram(
      spec, init, observed, 900, 4000, 0x5E01);
  const auto batched = final_count_histogram(
      spec, init, observed, 900, 4000, 0x5E02, 0, &sequential_epochs);
  EXPECT_GT(sequential_epochs, 0u);
  expect_equivalent(reference, batched);
}

TEST(BatchedSequentialPath, SingletonClassesMatchAgentOracle) {
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
  Init init;
  for (int i = 0; i < 8; ++i) init.emplace_back("s" + std::to_string(i), 1);
  const std::vector<std::string> observed{"s2", "s3", "s4", "s5"};
  std::uint64_t sequential_epochs = 0;
  const auto reference = oracle_count_histogram(
      spec, init, observed, 6, 6000, 0x5E03);
  const auto batched = final_count_histogram(
      spec, init, observed, 6, 6000, 0x5E04, 0, &sequential_epochs);
  EXPECT_GT(sequential_epochs, 0u);
  expect_equivalent(reference, batched);
}

TEST(BatchedSequentialPath, TruncatedEpochsMatchAgentOracle) {
  // steps(1) runs single-interaction epochs; steps(3) truncates at 3, so
  // roughly one epoch in five ends in a collision resolved after a
  // sequential prefix (n = 60: P(L > 3) ≈ 0.81).
  const auto spec = randomized_cycle_spec();
  const Init init{
      {"a", 20}, {"b", 16}, {"c", 12}, {"d", 8}, {"e", 4}};
  const std::vector<std::string> observed{"a", "c"};
  const auto reference = oracle_count_histogram(
      spec, init, observed, 120, 4000, 0x5E05);
  for (const std::uint64_t chunk : {1ull, 3ull}) {
    std::uint64_t sequential_epochs = 0;
    const auto batched = final_count_histogram(
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
  EXPECT_EQ(sim.stats().redraws, 0u);
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
  EXPECT_EQ(sim.stats().redraws, 0u);
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

TEST(BatchedGolden, TimeSlicingIsPinned) {
  // The batched engine's output depends on where steps() calls cut its
  // epochs, so this pins how run_until and Trace::run slice time.  dt·n =
  // 0.37 · 1003 = 371.11 is not an integer: each slice is 371 steps.
  constexpr std::uint64_t kN = 1003;
  constexpr double kDt = 0.37;
  const auto seeded = [](BatchedCountSimulation& sim) {
    sim.set_count("S", kN - 1);
    sim.set_count("I", 1);
  };
  const auto saturated = [](const BatchedCountSimulation& s) { return s.count("S") == 0; };

  BatchedCountSimulation sim(epidemic_spec(), 0x601DED);
  seeded(sim);
  const double t = sim.run_until(saturated, kDt, 1000.0);
  EXPECT_EQ(sim.interactions(), 7'420u);
  EXPECT_EQ(t, static_cast<double>(7'420u) / kN);
  EXPECT_EQ(sim.count("I"), kN);

  // The cap: 2.0 is crossed by the sixth slice, after 2226 steps.
  sim.reset(0x601DEE);
  seeded(sim);
  EXPECT_EQ(sim.run_until([](const BatchedCountSimulation&) { return false; }, kDt, 2.0), -1.0);
  EXPECT_EQ(sim.interactions(), 6u * 371u);
  EXPECT_EQ(sim.count("I"), 172u);

  // Trace samples at the start and after each of the 14 slices to t = 5.
  sim.reset(0x601DEF);
  seeded(sim);
  Trace<BatchedCountSimulation> trace;
  trace.observe("I", [](const BatchedCountSimulation& s) {
    return static_cast<double>(s.count("I"));
  });
  trace.run(sim, 5.0, kDt);
  ASSERT_EQ(trace.samples(), 15u);
  std::vector<double> infected;
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    EXPECT_EQ(trace.time_at(i), static_cast<double>(371 * i) / kN);
    infected.push_back(trace.value(i, "I"));
  }
  EXPECT_EQ(infected, (std::vector<double>{1, 3, 3, 10, 15, 32, 56, 92, 174, 308, 480, 659,
                                           818, 902, 949}));
}

/// Bulk class "B" next to 128 token classes s0..s127.  No transition
/// changes the size of "B" or the number of tokens; tokens hop between
/// classes, (B, s_i) through a randomized cell with residual null mass.
FiniteSpec skewed_token_spec() {
  constexpr int kTokens = 128;
  const auto s = [](int i) { return "s" + std::to_string(i % kTokens); };
  FiniteSpec spec;
  for (int i = 0; i < kTokens; ++i) {
    spec.add(s(i), "B", s(i + 1), "B");
    spec.add("B", s(i), "B", s(3 * i + 1), 0.5);
    for (int j = 0; j < kTokens; ++j) {
      if (j != i) spec.add(s(i), s(j), s(i + j), s(j));
    }
  }
  return spec;
}

/// FNV-1a digest of the count vector, by state id (stable for eager specs).
std::uint64_t counts_digest(const BatchedCountSimulation& sim) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::uint64_t c : sim.counts()) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (c >> shift) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
  return digest;
}

TEST(BatchedGolden, SequentialPathSkewedAndResizedCountsArePinned) {
  // Leg 1: n = 5·10³ with 97.6% of the agents in "B" next to 120 singleton
  // token classes.  Many classes share one prefix-sum bucket, and draws in
  // "B" land on agents already in the batch often enough to be redrawn.
  BatchedCountSimulation sim(skewed_token_spec(), 0x601DEC);
  sim.set_count("B", 4'880);
  for (int i = 0; i < 120; ++i) sim.set_count("s" + std::to_string(i), 1);
  sim.steps(20'000);
  const auto leg1 = sim.stats();
  EXPECT_GT(leg1.sequential, 0u);
  EXPECT_EQ(counts_digest(sim), 0xa2c5434a0eae68b0ULL);
  EXPECT_EQ(leg1.epochs, 431u);
  EXPECT_EQ(leg1.sequential, 431u);
  EXPECT_EQ(leg1.redraws, 487u);

  // Leg 2: set_count resizes n between steps calls, to 3·10³ and then to
  // 8·10³, so the collision search's per-n terms are rebuilt twice.
  sim.set_count("B", 2'880);
  sim.steps(10'000);
  EXPECT_EQ(counts_digest(sim), 0x23fc8c1b4db58d7eULL);
  sim.set_count("B", 7'880);
  sim.steps(10'000);
  const auto leg2 = sim.stats();
  EXPECT_GT(leg2.sequential, leg1.sequential);
  EXPECT_EQ(counts_digest(sim), 0x4a2d73c51651fedfULL);
  EXPECT_EQ(leg2.epochs, 890u);
  EXPECT_EQ(leg2.sequential, 890u);
  EXPECT_EQ(leg2.shuffle, 0u);
  EXPECT_EQ(leg2.dense, 0u);
  EXPECT_EQ(leg2.redraws, 923u);

  // Leg 3: n ≥ 10⁶ takes log_survival's series branch, then n falls back
  // to 4·10³ and the small-n branch again.
  sim.set_count("B", 2'000'000);
  sim.steps(200'000);
  EXPECT_EQ(counts_digest(sim), 0xe00a2c7c192f0195ULL);
  sim.set_count("B", 3'880);
  sim.steps(10'000);
  EXPECT_EQ(sim.count("B"), 3'880u);
  EXPECT_EQ(sim.population_size(), 4'000u);
  EXPECT_EQ(counts_digest(sim), 0x5243d8e11d49cd6eULL);
  EXPECT_EQ(sim.stats().epochs, 1349u);
  EXPECT_EQ(sim.stats().sequential, 1129u);
  EXPECT_EQ(sim.stats().shuffle, 0u);
  EXPECT_EQ(sim.stats().dense, 220u);
  EXPECT_EQ(sim.stats().redraws, 1177u);
}

}  // namespace
}  // namespace pops
