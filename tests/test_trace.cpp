// Tests for the Trace time-series recorder and confidence-interval helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "proto/epidemic.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/trace.hpp"
#include "stats/confidence.hpp"

namespace pops {
namespace {

using Sim = AgentSimulation<ValueEpidemic>;

double infected_fraction(const Sim& sim) {
  std::uint64_t count = 0;
  for (const auto& a : sim.agents()) count += a.value > 0 ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(sim.population_size());
}

TEST(Trace, SamplesOnGridAndExposesValues) {
  Sim sim(ValueEpidemic{}, 200, 1);
  sim.set_state(0, ValueEpidemic::State{1});
  Trace<Sim> trace;
  trace.observe("infected_frac", infected_fraction);
  trace.run(sim, 10.0, 1.0);
  ASSERT_GE(trace.samples(), 11u);
  EXPECT_DOUBLE_EQ(trace.time_at(0), 0.0);
  EXPECT_NEAR(trace.value(0, "infected_frac"), 1.0 / 200.0, 1e-12);
  // Monotone growth of the epidemic along the trace.
  for (std::size_t i = 1; i < trace.samples(); ++i) {
    EXPECT_GE(trace.value(i, "infected_frac"), trace.value(i - 1, "infected_frac"));
  }
}

TEST(Trace, EpidemicIsSigmoid) {
  // The logistic shape: growth rate peaks mid-trace, not at the ends.
  Sim sim(ValueEpidemic{}, 2000, 3);
  sim.set_state(0, ValueEpidemic::State{1});
  Trace<Sim> trace;
  trace.observe("frac", infected_fraction);
  trace.run(sim, 16.0, 0.5);
  double max_slope = 0.0;
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < trace.samples(); ++i) {
    const double slope = trace.value(i, "frac") - trace.value(i - 1, "frac");
    if (slope > max_slope) {
      max_slope = slope;
      argmax = i;
    }
  }
  EXPECT_GT(argmax, 2u);
  EXPECT_LT(argmax, trace.samples() - 2);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Sim sim(ValueEpidemic{}, 50, 5);
  Trace<Sim> trace;
  trace.observe("frac", infected_fraction);
  trace.run(sim, 2.0, 1.0);
  std::ostringstream os;
  trace.write_csv(os);
  const auto csv = os.str();
  EXPECT_EQ(csv.substr(0, 10), "time,frac\n");
  EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Trace, SubInteractionIntervalThrows) {
  // dt·n = 0.5 truncates every sampling interval to 0 interactions, so
  // time() could never reach `until`: refuse instead of spinning forever.
  Sim sim(ValueEpidemic{}, 50, 5);
  Trace<Sim> trace;
  trace.observe("frac", infected_fraction);
  EXPECT_THROW(trace.run(sim, 1.0, 0.01), std::invalid_argument);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(Trace, EmptyEngineRecordsNoSample) {
  // An engine with no agents has time 0/0: the run must refuse before it
  // records a NaN-time row, not after.
  BatchedCountSimulation sim(epidemic_spec(), 1);
  Trace<BatchedCountSimulation> trace;
  trace.observe("agents", [](const BatchedCountSimulation& s) {
    return static_cast<double>(s.population_size());
  });
  EXPECT_THROW(trace.run(sim, 1.0, 0.5), std::invalid_argument);
  EXPECT_EQ(trace.samples(), 0u);
}

TEST(Trace, UnknownObservableThrows) {
  Sim sim(ValueEpidemic{}, 50, 5);
  Trace<Sim> trace;
  trace.observe("a", infected_fraction);
  trace.sample(sim);
  EXPECT_THROW(trace.value(0, "b"), std::invalid_argument);
}

TEST(Trace, CannotAddObservableAfterSampling) {
  Sim sim(ValueEpidemic{}, 50, 5);
  Trace<Sim> trace;
  trace.observe("a", infected_fraction);
  trace.sample(sim);
  EXPECT_THROW(trace.observe("late", infected_fraction), std::invalid_argument);
}

TEST(Confidence, WilsonKnownValues) {
  // 50/100 at 95%: approximately [0.404, 0.596].
  const auto ci = wilson_interval(50, 100);
  EXPECT_NEAR(ci.lo, 0.404, 0.005);
  EXPECT_NEAR(ci.hi, 0.596, 0.005);
}

TEST(Confidence, WilsonZeroSuccessesStartsAtZero) {
  const auto ci = wilson_interval(0, 30);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 0.15);
}

TEST(Confidence, WilsonValidation) {
  EXPECT_THROW(wilson_interval(1, 0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(5, 4), std::invalid_argument);
}

TEST(Confidence, RuleOfThree) {
  EXPECT_DOUBLE_EQ(rule_of_three(300), 0.01);
  EXPECT_THROW(rule_of_three(0), std::invalid_argument);
}

TEST(Confidence, MeanHalfWidthShrinksWithSamples) {
  EXPECT_GT(mean_half_width(1.0, 10), mean_half_width(1.0, 1000));
}

}  // namespace
}  // namespace pops
