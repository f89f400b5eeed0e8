// Unit tests for the count-based simulator and FiniteSpec.
#include <gtest/gtest.h>

#include <limits>

#include "sim/count_simulation.hpp"
#include "sim/finite_spec.hpp"

namespace pops {
namespace {

TEST(FiniteSpec, StateRegistrationIsIdempotent) {
  FiniteSpec spec;
  const auto a = spec.state("a");
  const auto a2 = spec.state("a");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(spec.num_states(), 1u);
  EXPECT_EQ(spec.name(a), "a");
}

TEST(FiniteSpec, UnknownStateLookupThrows) {
  FiniteSpec spec;
  spec.state("a");
  EXPECT_THROW(spec.id("b"), std::invalid_argument);
  EXPECT_FALSE(spec.has_state("b"));
}

TEST(FiniteSpec, RateValidation) {
  FiniteSpec spec;
  EXPECT_THROW(spec.add("a", "b", "c", "d", 0.0), std::invalid_argument);
  EXPECT_THROW(spec.add("a", "b", "c", "d", 1.5), std::invalid_argument);
  spec.add("a", "b", "c", "d", 0.7);
  spec.add("a", "b", "d", "c", 0.6);
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // total 1.3 > 1
}

TEST(FiniteSpec, TotalRateSums) {
  FiniteSpec spec;
  spec.add("a", "b", "c", "d", 0.25);
  spec.add("a", "b", "d", "c", 0.5);
  EXPECT_DOUBLE_EQ(spec.total_rate(spec.id("a"), spec.id("b")), 0.75);
}

TEST(CountSimulation, ConservesPopulation) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 1);
  sim.set_count("S", 99);
  sim.set_count("I", 1);
  sim.steps(5000);
  EXPECT_EQ(sim.population_size(), 100u);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 100u);
  // An advance_time whose dt·n is infinite or ≥ 2⁶⁴ throws and runs nothing.
  EXPECT_THROW(sim.advance_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim.advance_time(1e18), std::invalid_argument);  // 10²⁰ ≥ 2⁶⁴
  EXPECT_EQ(sim.interactions(), 5000u);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 100u);
}

TEST(CountSimulation, EpidemicCompletes) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 7);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const CountSimulation& s) { return s.count("S") == 0; }, 1.0, 1000.0);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("I"), 1000u);
}

TEST(CountSimulation, InfectedCountIsMonotone) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 3);
  sim.set_count("S", 499);
  sim.set_count("I", 1);
  std::uint64_t last = 1;
  for (int i = 0; i < 200; ++i) {
    sim.steps(50);
    EXPECT_GE(sim.count("I"), last);
    last = sim.count("I");
  }
}

TEST(CountSimulation, RandomizedTransitionRatesRespected) {
  // a,b -> c,b with rate 0.25: starting from 1 a and n-1 b, the number of
  // (a,b) meetings before conversion is geometric with mean 4.
  FiniteSpec spec;
  spec.add_symmetric("a", "b", "c", "b", 0.25);
  double total_conversion_meetings = 0.0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    CountSimulation sim(spec, 100 + trial);
    sim.set_count("a", 1);
    sim.set_count("b", 9);
    std::uint64_t meetings = 0;
    while (sim.count("c") == 0) {
      // Count only steps where the (a,b) pair could have met: simulate one
      // step and count meetings via interaction counting is awkward; instead
      // just count all steps and rescale by the meeting probability.
      sim.step();
      ++meetings;
    }
    total_conversion_meetings += static_cast<double>(meetings);
  }
  // P(meet) per step = 2 * 1 * 9 / (10 * 9) = 0.2; conversion per step = 0.05
  // => expected steps to convert = 20.
  EXPECT_NEAR(total_conversion_meetings / kTrials, 20.0, 3.0);
}

TEST(CountSimulation, DeterministicForSameSeed) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation a(spec, 42), b(spec, 42);
  for (auto* sim : {&a, &b}) {
    sim->set_count("S", 200);
    sim->set_count("I", 5);
    sim->steps(1000);
  }
  EXPECT_EQ(a.count("I"), b.count("I"));
}

TEST(CountSimulation, StepRequiresTwoAgents) {
  FiniteSpec spec;
  spec.add("a", "a", "a", "a");
  CountSimulation sim(spec, 1);
  sim.set_count("a", 1);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

}  // namespace
}  // namespace pops
