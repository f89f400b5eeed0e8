// Unit tests for FiniteSpec: state registration, lookup and rate validation.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace pops
