// Tests for Section 4's machinery: the producibility closure, α-density, the
// density lemma (Lemma 4.2), the terminating toys (Theorem 4.1), and the
// timer lemma (Appendix E).
#include <gtest/gtest.h>

#include <cmath>

#include "harness/trials.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/bounds.hpp"
#include "stats/summary.hpp"
#include "termination/density.hpp"
#include "termination/producibility.hpp"
#include "termination/terminating_toys.hpp"
#include "termination/timer_lemma.hpp"

namespace pops {
namespace {

TEST(Producibility, ChainExample) {
  // x_i, x_i -> x_{i+1}, q (footnote 18): x_m is m-producible from {x1}.
  FiniteSpec spec;
  for (int i = 1; i <= 5; ++i) {
    spec.add("x" + std::to_string(i), "x" + std::to_string(i),
             "x" + std::to_string(i + 1), "q");
  }
  ProducibilityClosure closure(spec, {spec.id("x1")}, 10, 0.5);
  EXPECT_EQ(closure.producible_at(spec.id("x1")), 0);
  EXPECT_EQ(closure.producible_at(spec.id("x3")), 2);
  EXPECT_EQ(closure.producible_at(spec.id("x6")), 5);
  EXPECT_EQ(closure.producible_at(spec.id("q")), 1);
}

TEST(Producibility, RespectsRateThreshold) {
  FiniteSpec spec;
  spec.add("a", "a", "b", "a", 0.9);
  spec.add("a", "a", "c", "a", 0.05);  // below threshold rho = 0.1
  ProducibilityClosure closure(spec, {spec.id("a")}, 5, 0.1);
  EXPECT_GE(closure.producible_at(spec.id("b")), 0);
  EXPECT_EQ(closure.producible_at(spec.id("c")), -1);
}

TEST(Producibility, FixedPointStopsEarly) {
  FiniteSpec spec;
  spec.add("a", "a", "b", "b");
  ProducibilityClosure closure(spec, {spec.id("a")}, 100, 1.0);
  EXPECT_LE(closure.levels_computed(), 3u);
  EXPECT_EQ(closure.closure().size(), 2u);
}

TEST(Density, AlphaDenseCheck) {
  EXPECT_TRUE(is_alpha_dense({50, 50}, 0.5));
  EXPECT_TRUE(is_alpha_dense({50, 50, 0}, 0.5));  // absent states don't count
  EXPECT_FALSE(is_alpha_dense({99, 1}, 0.5));
  EXPECT_FALSE(is_alpha_dense({}, 0.5));
  EXPECT_FALSE(is_alpha_dense({0, 0}, 0.1));
}

TEST(DensityLemma, ClosureStatesReachLinearCountsInConstantTime) {
  // Lemma 4.2 on the fixed-count trigger with threshold 6: from the 1-dense
  // all-c0 configuration, every state in Λ^m (including the signal t) reaches
  // count >= δn by time 1, for δ independent of n.
  constexpr std::uint32_t kThreshold = 6;
  const auto spec = fixed_count_trigger_spec(kThreshold);
  ProducibilityClosure closure(spec, {spec.id("c0")}, kThreshold + 1, 1.0);
  ASSERT_GE(closure.producible_at(spec.id("t")), 1);

  double min_delta = 1.0;
  for (std::uint64_t n : {2000ULL, 8000ULL, 32000ULL}) {
    BatchedCountSimulation sim(spec, 97 + n);
    sim.set_count("c0", n);
    const auto result = measure_density_lemma(sim, closure.closure(), 1.0);
    EXPECT_GT(result.min_fraction, 0.0) << "n=" << n;
    min_delta = std::min(min_delta, result.min_fraction);
    EXPECT_GE(result.first_all_present_time, 0.0);
    EXPECT_LE(result.first_all_present_time, 1.0);
  }
  // δ is bounded away from 0 uniformly in n (here generously 1e-3).
  EXPECT_GT(min_delta, 1e-3);
}

TEST(DensityLemma, SubInteractionCheckIntervalThrows) {
  // At its defaults (deadline 1, check_dt 0.01) on 50 agents every check
  // interval truncates to 0 interactions: refuse instead of spinning forever.
  const auto spec = fixed_count_trigger_spec(6);
  ProducibilityClosure closure(spec, {spec.id("c0")}, 7, 1.0);
  BatchedCountSimulation sim(spec, 50);
  sim.set_count("c0", 50);
  EXPECT_THROW(measure_density_lemma(sim, closure.closure()), std::invalid_argument);
  EXPECT_EQ(sim.interactions(), 0u);
  // An engine with no agents loaded has no parallel time (0/0) to step.
  BatchedCountSimulation empty(spec, 51);
  EXPECT_THROW(measure_density_lemma(empty, closure.closure()), std::invalid_argument);
}

TEST(DensityLemma, ClosurePresentAtStartReportsStartTime) {
  // Every closure state is present before the first check interval, so the
  // first time all are present is the start, not the first grid point.
  const auto spec = fixed_count_trigger_spec(6);
  BatchedCountSimulation sim(spec, 52);
  sim.set_count("c0", 1000);
  const auto result = measure_density_lemma(sim, {spec.id("c0")});
  EXPECT_EQ(result.first_all_present_time, 0.0);
}

TEST(TerminatingToys, FixedCountSignalsInConstantTime) {
  // First signal at time ~ threshold/2, independent of n.
  for (std::uint64_t n : {100ULL, 1000ULL, 10000ULL}) {
    AgentSimulation<FixedCountTrigger> sim(FixedCountTrigger{50}, n, 7 + n);
    const double t = sim.run_until(
        [](const AgentSimulation<FixedCountTrigger>& s) { return any_terminated(s); },
        1.0, 1e5);
    ASSERT_GE(t, 0.0);
    EXPECT_LE(t, 30.0) << "n=" << n;  // threshold/2 + fluctuation
  }
}

TEST(TerminatingToys, HeadsRunSignalTimeDecreasesWithN) {
  auto first_signal = [](std::uint64_t n, std::uint64_t seed) {
    AgentSimulation<HeadsRunTrigger> sim(HeadsRunTrigger{12}, n, seed);
    const double t = sim.run_until(
        [](const AgentSimulation<HeadsRunTrigger>& s) { return any_terminated(s); }, 1.0,
        1e6);
    EXPECT_GE(t, 0.0);
    return t;
  };
  Summary small, large;
  for (int i = 0; i < 5; ++i) {
    small.add(first_signal(100, trial_seed(101, i)));
    large.add(first_signal(5000, trial_seed(103, i)));
  }
  EXPECT_LT(large.mean(), small.mean());
}

TEST(TerminatingToys, GeometricTriggerFiresAtBirthForLargeN) {
  // Pr[some draw > 20] = 1 - (1 - 2^{-20})^n: tiny for n = 100, near 1 for
  // n = 2^23.  We test the small side and the monotonicity by formula.
  AgentSimulation<GeometricTrigger> sim(GeometricTrigger{20}, 100, 3);
  EXPECT_FALSE(any_terminated(sim));  // overwhelmingly likely
  const double p_small = 1.0 - std::pow(1.0 - std::exp2(-20.0), 100.0);
  const double p_large = 1.0 - std::pow(1.0 - std::exp2(-20.0), 8388608.0);
  EXPECT_LT(p_small, 1e-4);
  EXPECT_GT(p_large, 0.99);
}

TEST(TerminatingToys, SignalSpreadsByEpidemic) {
  AgentSimulation<FixedCountTrigger> sim(FixedCountTrigger{10}, 500, 11);
  const double t = sim.run_until(
      [](const AgentSimulation<FixedCountTrigger>& s) {
        for (const auto& a : s.agents()) {
          if (!a.terminated) return false;
        }
        return true;
      },
      1.0, 1e5);
  EXPECT_GE(t, 0.0);
  EXPECT_LE(t, 10.0 / 2.0 + 24.0 * std::log(500.0));
}

TEST(TimerLemma, CorollaryE3CountStaysAboveKOver81) {
  // Empirically the count never drops below k/81 within time 1 (the bound
  // 2^{-k/81} makes failures astronomically unlikely at k = 2000).
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto min_count = min_count_under_consumption(4000, 2000, 1.0, rng);
    EXPECT_GT(min_count, 2000u / 81u);
  }
}

TEST(TimerLemma, ConsumptionIsFasterOverLongerHorizons) {
  Rng rng(17);
  Summary short_h, long_h;
  for (int i = 0; i < 10; ++i) {
    short_h.add(static_cast<double>(min_count_under_consumption(2000, 1000, 0.5, rng)));
    long_h.add(static_cast<double>(min_count_under_consumption(2000, 1000, 2.0, rng)));
  }
  EXPECT_GT(short_h.mean(), long_h.mean());
}

TEST(TimerLemma, BallsInBinsMatchesExpectation) {
  // E[empty after m throws] = k (1 - 1/n)^m approximately; check the mean.
  Rng rng(19);
  constexpr std::uint64_t kN = 1000, kK = 500, kM = 2000;
  Summary s;
  for (int i = 0; i < 200; ++i) {
    s.add(static_cast<double>(empty_bins_after_throws(kN, kK, kM, rng)));
  }
  const double expected = kK * std::pow(1.0 - 1.0 / static_cast<double>(kN), kM);
  EXPECT_NEAR(s.mean(), expected, 0.05 * expected);
}

TEST(TimerLemma, LemmaE1TailHolds) {
  // Pr[<= δk empty] < (2δem/n)^{δk} with δ = 1/81, m = n: bound ~ 6.7e-8 at
  // k = 810 — empirically never.
  Rng rng(23);
  constexpr std::uint64_t kN = 2000, kK = 810, kM = 2000;
  const double delta = 1.0 / 81.0;
  for (int i = 0; i < 50; ++i) {
    const auto empty = empty_bins_after_throws(kN, kK, kM, rng);
    EXPECT_GT(static_cast<double>(empty), delta * kK);
  }
}

TEST(TimerLemma, InputValidation) {
  Rng rng(29);
  EXPECT_THROW(min_count_under_consumption(1, 1, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(min_count_under_consumption(10, 11, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(empty_bins_after_throws(10, 11, 5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pops
