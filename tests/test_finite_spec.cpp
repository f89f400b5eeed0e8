// Unit tests for FiniteSpec: state registration, lookup and rate validation.
#include <gtest/gtest.h>

#include <string>

#include "sim/dispatch.hpp"
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

TEST(FiniteSpec, UnnamedStatesHavePlaceholderLabels) {
  FiniteSpec spec;
  spec.state("a");
  for (int i = 0; i < 4; ++i) spec.add_unnamed_state();
  EXPECT_EQ(spec.name(0), "a");
  EXPECT_EQ(spec.name(3), "#3");
  EXPECT_EQ(spec.id("#3"), 3u);
  EXPECT_EQ(spec.state("#3"), 3u);  // by-name lookup finds the placeholder
  EXPECT_EQ(spec.num_states(), 5u);

  // A label is registered once; the failed add leaves the spec unchanged.
  EXPECT_THROW(spec.add_state("#2"), std::invalid_argument);
  EXPECT_EQ(spec.num_states(), 5u);

  // Messages built from names read the placeholders.
  spec.add(1, 4, 2, 2, 0.75);
  spec.add(1, 4, 3, 3, 0.5);
  std::string what;
  try {
    const DispatchTable table(spec);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("transition rates for pair (#1, #4) exceed 1"), std::string::npos)
      << what;
}

TEST(FiniteSpec, TotalRateSums) {
  FiniteSpec spec;
  spec.add("a", "b", "c", "d", 0.25);
  spec.add("a", "b", "d", "c", 0.5);
  EXPECT_DOUBLE_EQ(spec.total_rate(spec.id("a"), spec.id("b")), 0.75);
}

}  // namespace
}  // namespace pops
