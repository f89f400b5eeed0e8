// Tests for the paper's introductory arithmetic protocols (Section 1):
// x,q → y,y computes 2x in O(log n); x,x → y,q computes floor(x/2) in O(n).
#include <gtest/gtest.h>

#include <cmath>

#include "harness/trials.hpp"
#include "proto/arithmetic.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/summary.hpp"

namespace pops {
namespace {

double run_doubling(std::uint64_t x, std::uint64_t q, std::uint64_t seed,
                    std::uint64_t* result) {
  BatchedCountSimulation sim(doubling_spec(), seed);
  sim.set_count("x", x);
  sim.set_count("q", q);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("x") == 0; }, 0.25, 1e7);
  *result = sim.count("y");
  return t;
}

double run_halving(std::uint64_t x, std::uint64_t seed, std::uint64_t* result) {
  BatchedCountSimulation sim(halving_spec(), seed);
  sim.set_count("x", x);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("x") <= 1; }, 0.25, 1e7);
  *result = sim.count("y");
  return t;
}

TEST(Arithmetic, DoublingComputesTwoX) {
  for (std::uint64_t x : {10ULL, 100ULL, 333ULL}) {
    std::uint64_t y = 0;
    const double t = run_doubling(x, 2 * x, 3 + x, &y);
    ASSERT_GE(t, 0.0);
    EXPECT_EQ(y, 2 * x) << "x=" << x;
  }
}

TEST(Arithmetic, HalvingComputesFloorXOverTwo) {
  for (std::uint64_t x : {10ULL, 101ULL, 256ULL}) {
    std::uint64_t y = 0;
    const double t = run_halving(x, 5 + x, &y);
    ASSERT_GE(t, 0.0);
    EXPECT_EQ(y, x / 2) << "x=" << x;
  }
}

TEST(Arithmetic, HalvingLeavesOddRemainder) {
  BatchedCountSimulation sim(halving_spec(), 7);
  sim.set_count("x", 7);
  ASSERT_GE(sim.run_until([](const BatchedCountSimulation& s) { return s.count("x") <= 1; }, 0.25,
                          1e7),
            0.0);
  EXPECT_EQ(sim.count("x"), 1u);  // odd leftover never reacts
  EXPECT_EQ(sim.count("y"), 3u);
}

TEST(Arithmetic, DoublingIsLogarithmicHalvingIsLinear) {
  // The paper's exponential gap: time(halving)/time(doubling) grows ~ n/log n.
  auto mean_time = [](auto runner, std::uint64_t n) {
    Summary s;
    for (int t = 0; t < 5; ++t) s.add(runner(n, trial_seed(0xA17, n + t)));
    return s.mean();
  };
  auto doubling_time = [](std::uint64_t n, std::uint64_t seed) {
    std::uint64_t y = 0;
    return run_doubling(n / 3, n - n / 3, seed, &y);
  };
  auto halving_time = [](std::uint64_t n, std::uint64_t seed) {
    std::uint64_t y = 0;
    return run_halving(n, seed, &y);
  };
  const double d_small = mean_time(doubling_time, 256);
  const double d_large = mean_time(doubling_time, 4096);
  const double h_small = mean_time(halving_time, 256);
  const double h_large = mean_time(halving_time, 4096);
  // Doubling grows ~ log: far less than 4x over a 16x size increase.
  EXPECT_LT(d_large, 4.0 * d_small);
  // Halving grows ~ linearly: at least 5x over a 16x size increase.
  EXPECT_GT(h_large, 5.0 * h_small);
  // And the gap at n = 4096 is at least an order of magnitude.
  EXPECT_GT(h_large, 10.0 * d_large);
}

TEST(Arithmetic, CopyConvertsEveryX) {
  BatchedCountSimulation sim(copy_spec(), 9);
  sim.set_count("x", 50);
  sim.set_count("q", 50);
  ASSERT_GE(sim.run_until([](const BatchedCountSimulation& s) { return s.count("x") == 0; }, 0.25,
                          1e6),
            0.0);
  EXPECT_EQ(sim.count("y"), 50u);
  EXPECT_EQ(sim.count("q"), 50u);  // catalyst preserved
}

}  // namespace
}  // namespace pops
