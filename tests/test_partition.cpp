// Tests for Partition-Into-A/S (Lemma 3.2, Corollary 3.3): completeness,
// O(log n)-ish completion, and balance of the split.
#include <gtest/gtest.h>

#include <cmath>

#include "harness/trials.hpp"
#include "proto/partition.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/batched_count_simulation.hpp"
#include "stats/bounds.hpp"

namespace pops {
namespace {

bool partition_complete(const AgentSimulation<PartitionProtocol>& sim) {
  for (const auto& a : sim.agents()) {
    if (a.role == Role::X) return false;
  }
  return true;
}

std::uint64_t count_role(const AgentSimulation<PartitionProtocol>& sim, Role r) {
  std::uint64_t c = 0;
  for (const auto& a : sim.agents()) {
    if (a.role == r) ++c;
  }
  return c;
}

TEST(Partition, EveryAgentGetsARole) {
  AgentSimulation<PartitionProtocol> sim(PartitionProtocol{}, 1000, 1);
  const double t = sim.run_until(partition_complete, 1.0, 1e5);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(count_role(sim, Role::A) + count_role(sim, Role::S), 1000u);
}

TEST(Partition, CompletesInLogarithmicTime) {
  // The catch-up rules make completion O(log n); generously, < 40 ln n.
  for (std::uint64_t n : {100ULL, 1000ULL, 10000ULL}) {
    AgentSimulation<PartitionProtocol> sim(PartitionProtocol{}, n, 7 + n);
    const double t = sim.run_until(partition_complete, 1.0, 1e6);
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 40.0 * std::log(static_cast<double>(n))) << "n=" << n;
  }
}

TEST(Partition, BalanceWithinLemma32Deviation) {
  // | |A| - n/2 | <= sqrt(n ln n) except w.p. <= 2/n^2 — across 50 trials at
  // n = 4096 we should never see a violation.
  constexpr std::uint64_t kN = 4096;
  const double bound = std::sqrt(static_cast<double>(kN) * std::log(static_cast<double>(kN)));
  const auto deviations = run_trials(50, 31, [&](std::uint64_t seed, std::uint64_t) {
    AgentSimulation<PartitionProtocol> sim(PartitionProtocol{}, kN, seed);
    EXPECT_GE(sim.run_until(partition_complete, 1.0, 1e6), 0.0);
    const double a = static_cast<double>(count_role(sim, Role::A));
    return std::abs(a - static_cast<double>(kN) / 2.0);
  });
  for (double d : deviations) EXPECT_LE(d, bound);
}

TEST(Partition, Corollary33OneThirdTwoThirds) {
  constexpr std::uint64_t kN = 300;
  const auto fractions = run_trials(100, 37, [&](std::uint64_t seed, std::uint64_t) {
    AgentSimulation<PartitionProtocol> sim(PartitionProtocol{}, kN, seed);
    EXPECT_GE(sim.run_until(partition_complete, 1.0, 1e6), 0.0);
    return static_cast<double>(count_role(sim, Role::A)) / static_cast<double>(kN);
  });
  for (double f : fractions) {
    EXPECT_GE(f, 1.0 / 3.0);
    EXPECT_LE(f, 2.0 / 3.0);
  }
}

TEST(Partition, FiniteSpecMatchesAgentProtocol) {
  // The FiniteSpec version produces the same (X exhausted, A+S = n) outcome.
  BatchedCountSimulation sim(partition_spec(), 5);
  sim.set_count("X", 2000);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("X") == 0; }, 1.0, 1e5);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("A") + sim.count("S"), 2000u);
  // Balance: same Lemma 3.2 deviation bound.
  const double a = static_cast<double>(sim.count("A"));
  EXPECT_NEAR(a, 1000.0, std::sqrt(2000.0 * std::log(2000.0)));
}

TEST(Partition, TwoAgents) {
  AgentSimulation<PartitionProtocol> sim(PartitionProtocol{}, 2, 9);
  sim.steps(10);
  EXPECT_EQ(count_role(sim, Role::A), 1u);
  EXPECT_EQ(count_role(sim, Role::S), 1u);
}

}  // namespace
}  // namespace pops
