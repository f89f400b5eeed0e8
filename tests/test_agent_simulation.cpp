// Unit tests for the agent-level simulator: time accounting, determinism,
// run_until semantics, state planting.
#include <gtest/gtest.h>

#include <limits>

#include "proto/epidemic.hpp"
#include "sim/agent_simulation.hpp"

namespace pops {
namespace {

// A protocol that merely counts interactions per agent.
struct CountingProtocol {
  struct State {
    std::uint64_t count = 0;
  };
  State initial(Rng&) const { return State{}; }
  void interact(State& receiver, State& sender, Rng&) const {
    ++receiver.count;
    ++sender.count;
  }
};
static_assert(AgentProtocol<CountingProtocol>);

TEST(AgentSimulation, RejectsTooSmallPopulation) {
  EXPECT_THROW(AgentSimulation<CountingProtocol>(CountingProtocol{}, 1, 0),
               std::invalid_argument);
}

TEST(AgentSimulation, ParallelTimeIsInteractionsOverN) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 10, 1);
  sim.steps(25);
  EXPECT_EQ(sim.interactions(), 25u);
  EXPECT_DOUBLE_EQ(sim.time(), 2.5);
}

TEST(AgentSimulation, EachInteractionTouchesExactlyTwoAgents) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 8, 2);
  sim.steps(1000);
  std::uint64_t total = 0;
  for (const auto& a : sim.agents()) total += a.count;
  EXPECT_EQ(total, 2000u);
}

TEST(AgentSimulation, DeterministicForSameSeed) {
  AgentSimulation<CountingProtocol> a(CountingProtocol{}, 16, 99);
  AgentSimulation<CountingProtocol> b(CountingProtocol{}, 16, 99);
  a.steps(500);
  b.steps(500);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.agent(i).count, b.agent(i).count);
  }
}

TEST(AgentSimulation, AdvanceTimeRunsNTimesDtInteractions) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 50, 3);
  sim.advance_time(2.0);
  EXPECT_EQ(sim.interactions(), 100u);
  // dt·n must be a finite interaction count below 2⁶⁴.
  EXPECT_THROW(sim.advance_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim.advance_time(1e18), std::invalid_argument);  // 5·10¹⁹ ≥ 2⁶⁴
  EXPECT_EQ(sim.interactions(), 100u);
}

TEST(AgentSimulation, RunUntilReturnsTimeOfFirstSuccessfulCheck) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 10, 4);
  const double t = sim.run_until(
      [](const AgentSimulation<CountingProtocol>& s) { return s.time() >= 3.0; }, 1.0, 100.0);
  EXPECT_GE(t, 3.0);
  EXPECT_LE(t, 4.0);
}

TEST(AgentSimulation, RunUntilHonorsCap) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 10, 4);
  const double t =
      sim.run_until([](const AgentSimulation<CountingProtocol>&) { return false; }, 1.0, 5.0);
  EXPECT_LT(t, 0.0);
  EXPECT_GE(sim.time(), 5.0);
  // check_dt * n < 1 truncates every check interval to 0 interactions, so
  // time() could never reach the cap: refuse instead of spinning forever.
  AgentSimulation<CountingProtocol> tiny_dt(CountingProtocol{}, 10, 4);
  EXPECT_THROW(tiny_dt.run_until(
                   [](const AgentSimulation<CountingProtocol>&) { return false; }, 0.05, 5.0),
               std::invalid_argument);
}

TEST(AgentSimulation, SetStatePlantsLeader) {
  AgentSimulation<ValueEpidemic> sim(ValueEpidemic{}, 32, 5);
  sim.set_state(0, ValueEpidemic::State{77});
  const double t = sim.run_until(
      [](const AgentSimulation<ValueEpidemic>& s) {
        for (const auto& a : s.agents()) {
          if (a.value != 77) return false;
        }
        return true;
      },
      1.0, 500.0);
  EXPECT_GE(t, 0.0) << "max-value epidemic must reach everyone";
}

TEST(AgentSimulation, RngAccessorAdvancesSharedStream) {
  AgentSimulation<CountingProtocol> sim(CountingProtocol{}, 4, 6);
  const auto before = sim.rng().next();
  const auto after = sim.rng().next();
  EXPECT_NE(before, after);
}

}  // namespace
}  // namespace pops
