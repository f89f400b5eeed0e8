// Tests for epidemic protocols against the paper's time bounds (Lemma A.1,
// Corollaries 3.4/3.5).
#include <gtest/gtest.h>

#include <cmath>

#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/bounds.hpp"
#include "stats/summary.hpp"

namespace pops {
namespace {

double epidemic_completion_time(std::uint64_t n, std::uint64_t seed) {
  BatchedCountSimulation sim(epidemic_spec(), seed);
  sim.set_count("S", n - 1);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 0.5, 1e6);
  EXPECT_GE(t, 0.0);
  return t;
}

TEST(Epidemic, MeanCompletionTimeMatchesLemmaA1) {
  // E[T] = ((n-1)/n) H_{n-1}; sample mean over trials should be close.
  constexpr std::uint64_t kN = 2000;
  const auto times = run_trials(40, 11, [](std::uint64_t seed, std::uint64_t) {
    return epidemic_completion_time(kN, seed);
  });
  Summary s;
  for (double t : times) s.add(t);
  const double expected = bounds::epidemic_expected_time(kN);
  // run_until checks on a 0.5-time grid, so allow that quantization plus
  // sampling noise.
  EXPECT_NEAR(s.mean(), expected, 2.0);
}

TEST(Epidemic, UpperTailLemmaA1) {
  // Pr[T > 24 ln n] < 4 n^{-5}: should essentially never happen.
  constexpr std::uint64_t kN = 500;
  const double cap = 24.0 * std::log(static_cast<double>(kN));
  const auto times = run_trials(60, 13, [](std::uint64_t seed, std::uint64_t) {
    return epidemic_completion_time(kN, seed);
  });
  for (double t : times) EXPECT_LT(t, cap);
}

TEST(Epidemic, LowerTailLemmaA1) {
  // Pr[T < (1/4) ln n] < 2 e^{-sqrt n}: never at n = 500.
  constexpr std::uint64_t kN = 500;
  const double floor_t = 0.25 * std::log(static_cast<double>(kN));
  const auto times = run_trials(60, 17, [](std::uint64_t seed, std::uint64_t) {
    return epidemic_completion_time(kN, seed);
  });
  for (double t : times) EXPECT_GT(t, floor_t);
}

TEST(Epidemic, SubpopulationSlowdownCorollary34) {
  // Epidemic among a = n/3 agents completes within 24 ln a w.h.p.
  // (Corollary 3.5) but takes longer than a full-population epidemic.
  constexpr std::uint64_t kN = 1500;
  constexpr std::uint64_t kActive = kN / 3;
  const auto times = run_trials(30, 19, [](std::uint64_t seed, std::uint64_t) {
    BatchedCountSimulation sim(subpopulation_epidemic_spec(), seed);
    sim.set_count("S", kActive - 1);
    sim.set_count("I", 1);
    sim.set_count("B", kN - kActive);
    const double t = sim.run_until(
        [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 0.5, 1e6);
    EXPECT_GE(t, 0.0);
    return t;
  });
  Summary sub;
  for (double t : times) sub.add(t);
  const double cap = 24.0 * std::log(static_cast<double>(kActive));
  EXPECT_LT(sub.max(), cap);
  // ~c^2/(c... the subpopulation epidemic is slower than the full one by a
  // constant factor: compare means.
  const auto full_times = run_trials(30, 23, [](std::uint64_t seed, std::uint64_t) {
    return epidemic_completion_time(kN, seed);
  });
  Summary full;
  for (double t : full_times) full.add(t);
  EXPECT_GT(sub.mean(), full.mean());
}

TEST(ValueEpidemic, MaxPropagatesToEveryone) {
  AgentSimulation<ValueEpidemic> sim(ValueEpidemic{}, 500, 3);
  for (std::uint64_t i = 0; i < 500; ++i) sim.set_state(i, ValueEpidemic::State{i});
  const double t = sim.run_until(
      [](const AgentSimulation<ValueEpidemic>& s) {
        for (const auto& a : s.agents()) {
          if (a.value != 499) return false;
        }
        return true;
      },
      1.0, 1e5);
  EXPECT_GE(t, 0.0);
  EXPECT_LT(t, 24.0 * std::log(500.0));
}

TEST(ValueEpidemic, ValueNeverDecreases) {
  AgentSimulation<ValueEpidemic> sim(ValueEpidemic{}, 50, 5);
  sim.set_state(7, ValueEpidemic::State{42});
  std::uint64_t last_max_count = 0;
  for (int i = 0; i < 100; ++i) {
    sim.steps(25);
    std::uint64_t count = 0;
    for (const auto& a : sim.agents()) {
      if (a.value == 42) ++count;
    }
    EXPECT_GE(count, last_max_count);
    last_max_count = count;
  }
}

}  // namespace
}  // namespace pops
