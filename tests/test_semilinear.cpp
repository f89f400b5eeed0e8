// Tests for the classic constant-state predicate protocols: stable
// correctness verified exhaustively at small n (via the reachability
// checker), and convergence at larger n in the count simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "proto/semilinear.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/reachability.hpp"

namespace pops {
namespace {

// All agents agree on the output bit `expected` for threshold `c`.
bool all_output(const FiniteSpec& spec, const Configuration& config, bool expected,
                std::uint32_t c) {
  for (std::uint32_t s = 0; s < spec.num_states(); ++s) {
    if (config[s] > 0 && output_of(spec, s, c) != expected) return false;
  }
  return true;
}

TEST(Threshold, ExhaustivelyStabilizesToCorrectAnswer) {
  // For every input size up to 6 tokens among 6 agents and thresholds 2..3:
  // a configuration where all agents output the right bit is reachable, and
  // from every reachable configuration it remains reachable (= the protocol
  // stably computes the predicate, paper §2.1 semantics).
  for (std::uint32_t c : {2u, 3u}) {
    const auto spec = threshold_spec(c);
    for (std::uint64_t tokens = 0; tokens <= 6; ++tokens) {
      auto config = make_configuration(
          spec, {{"L1", tokens}, {"L0", 6 - tokens}});
      const bool expected = tokens >= c;
      for (const auto& reached : reachable_configurations(spec, config)) {
        EXPECT_TRUE(can_reach(spec, reached,
                              [&](const Configuration& d) {
                                return all_output(spec, d, expected, c);
                              }))
            << "tokens=" << tokens << " c=" << c;
      }
    }
  }
}

TEST(Threshold, ConvergesInSimulation) {
  constexpr std::uint32_t kC = 4;
  const auto spec = threshold_spec(kC);
  for (std::uint64_t tokens : {2ULL, 4ULL, 9ULL}) {
    BatchedCountSimulation sim(spec, 5 + tokens);
    sim.set_count("L1", tokens);
    sim.set_count("L0", 200 - tokens);
    const bool expected = tokens >= kC;
    const double t = sim.run_until(
        [&](const BatchedCountSimulation& s) {
          for (std::uint32_t st = 0; st < spec.num_states(); ++st) {
            if (s.count(st) > 0 && output_of(spec, st, kC) != expected) return false;
          }
          return true;
        },
        5.0, 1e7);
    EXPECT_GE(t, 0.0) << "tokens=" << tokens;
  }
}

TEST(Parity, ExhaustivelyStabilizes) {
  const auto spec = parity_spec();
  for (std::uint64_t ones = 0; ones <= 5; ++ones) {
    auto config = make_configuration(spec, {{"L1", ones}, {"L0", 5 - ones}});
    const bool expected = ones % 2 == 1;
    for (const auto& reached : reachable_configurations(spec, config)) {
      EXPECT_TRUE(can_reach(spec, reached, [&](const Configuration& d) {
        return all_output(spec, d, expected, 1);
      })) << "ones=" << ones;
    }
  }
}

TEST(Parity, ExactlyOneLeaderSurvives) {
  const auto spec = parity_spec();
  BatchedCountSimulation sim(spec, 7);
  sim.set_count("L1", 33);
  sim.set_count("L0", 67);
  const double t = sim.run_until(
      [&](const BatchedCountSimulation& s) { return s.count("L0") + s.count("L1") == 1; }, 10.0,
      1e7);
  ASSERT_GE(t, 0.0);
  EXPECT_EQ(sim.count("L1"), 1u);  // 33 is odd
}

TEST(ApproximateMajority, ClearMajorityConvergesFast) {
  const auto spec = approximate_majority_spec();
  BatchedCountSimulation sim(spec, 11);
  sim.set_count("x", 700);
  sim.set_count("y", 300);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("y") == 0 && s.count("b") == 0; }, 1.0,
      1e6);
  ASSERT_GE(t, 0.0);
  EXPECT_EQ(sim.count("x"), 1000u);
  EXPECT_LT(t, 24.0 * std::log(1000.0));  // O(log n) w.h.p.
}

TEST(ApproximateMajority, ConsensusIsSilent) {
  const auto spec = approximate_majority_spec();
  const auto all_x = make_configuration(spec, {{"x", 10}});
  EXPECT_TRUE(is_silent(spec, all_x));
}

TEST(ApproximateMajority, EventuallyReachesConsensusEitherWay) {
  // From a tie, a consensus (all-x or all-y) is reachable — and consensus is
  // absorbing, so the protocol stabilizes (to an arbitrary side).
  const auto spec = approximate_majority_spec();
  const auto tie = make_configuration(spec, {{"x", 3}, {"y", 3}});
  EXPECT_TRUE(can_reach(spec, tie, [&](const Configuration& c) {
    return c[spec.id("y")] == 0 && c[spec.id("b")] == 0;
  }));
  EXPECT_TRUE(can_reach(spec, tie, [&](const Configuration& c) {
    return c[spec.id("x")] == 0 && c[spec.id("b")] == 0;
  }));
}

TEST(Threshold, RejectsZeroThreshold) {
  EXPECT_THROW(threshold_spec(0), std::invalid_argument);
}

}  // namespace
}  // namespace pops
