// Tests for the finite-state protocol compiler (src/compile/): choice-tree
// enumeration, golden round-trips onto hand-written FiniteSpecs, dyadic rate
// exactness, and the producibility-closure cross-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "compile/choice.hpp"
#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "proto/partition.hpp"
#include "proto/semilinear.hpp"
#include "sim/batched_count_simulation.hpp"
#include "termination/terminating_toys.hpp"

namespace pops {
namespace {

// ------------------------------------------------------------ ChoiceRng ----

TEST(ChoiceRng, CoinEnumeratesBothBranchesWithHalfMass) {
  std::vector<std::pair<bool, double>> paths;
  enumerate_choices(4, [&](ChoiceRng& rng) {
    const bool value = rng.coin();
    paths.emplace_back(value, rng.path_probability());
  });
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_TRUE(paths[0].first);
  EXPECT_FALSE(paths[1].first);
  EXPECT_DOUBLE_EQ(paths[0].second, 0.5);
  EXPECT_DOUBLE_EQ(paths[1].second, 0.5);
}

TEST(ChoiceRng, GeometricEnumeratesTruncatedLaw) {
  // cap 3: P(1) = 1/2, P(2) = 1/4, P(3) = 1/4 (the law of min(geom, 3)).
  std::vector<std::pair<std::uint32_t, double>> paths;
  enumerate_choices(3, [&](ChoiceRng& rng) {
    const std::uint32_t value = rng.geometric_fair();
    paths.emplace_back(value, rng.path_probability());
  });
  ASSERT_EQ(paths.size(), 3u);
  double total = 0.0;
  for (const auto& [value, prob] : paths) total += prob;
  EXPECT_EQ(total, 1.0);  // dyadic-exact
  EXPECT_EQ(paths[0], (std::pair<std::uint32_t, double>{1, 0.5}));
  EXPECT_EQ(paths[1], (std::pair<std::uint32_t, double>{2, 0.25}));
  EXPECT_EQ(paths[2], (std::pair<std::uint32_t, double>{3, 0.25}));
}

TEST(ChoiceRng, GeometricCapOneIsDeterministic) {
  std::size_t paths = 0;
  enumerate_choices(1, [&](ChoiceRng& rng) {
    EXPECT_EQ(rng.geometric_fair(), 1u);
    EXPECT_DOUBLE_EQ(rng.path_probability(), 1.0);
    ++paths;
  });
  EXPECT_EQ(paths, 1u);
}

TEST(ChoiceRng, BranchDependentDrawCountsAreHandled) {
  // coin() == heads additionally draws a geometric: 1 + cap leaves.
  std::vector<double> probs;
  enumerate_choices(2, [&](ChoiceRng& rng) {
    if (rng.coin()) rng.geometric_fair();
    probs.push_back(rng.path_probability());
  });
  ASSERT_EQ(probs.size(), 3u);  // (H,1), (H,2), (T)
  EXPECT_DOUBLE_EQ(probs[0], 0.25);
  EXPECT_DOUBLE_EQ(probs[1], 0.25);
  EXPECT_DOUBLE_EQ(probs[2], 0.5);
}

TEST(ChoiceRng, UniformDoubleIsRejected) {
  ChoiceRng rng(2);
  EXPECT_THROW(rng.uniform_double(), std::invalid_argument);
}

// ------------------------------------------------------- golden helpers ----

using NamedTransition = std::tuple<std::string, std::string, std::string, std::string, double>;

/// Transitions as name tuples, identity (null) transitions dropped — the
/// compiler leaves identity outputs as residual null mass, so hand-written
/// specs must be normalized the same way before comparison.
std::set<NamedTransition> normalized(const FiniteSpec& spec) {
  std::set<NamedTransition> out;
  for (const auto& t : spec.transitions()) {
    if (t.in_receiver == t.out_receiver && t.in_sender == t.out_sender) continue;
    out.emplace(spec.name(t.in_receiver), spec.name(t.in_sender),
                spec.name(t.out_receiver), spec.name(t.out_sender), t.rate);
  }
  return out;
}

std::set<std::string> state_names(const FiniteSpec& spec) {
  std::set<std::string> names;
  for (std::uint32_t i = 0; i < spec.num_states(); ++i) names.insert(spec.name(i));
  return names;
}

// ------------------------------------------------------- golden: toys ------

TEST(ProtocolCompiler, PartitionRoundTripsOntoHandWrittenSpec) {
  const auto result = compile_bounded(PartitionProtocol{}, 1);
  const FiniteSpec hand = partition_spec();
  EXPECT_EQ(state_names(result.spec), state_names(hand));
  EXPECT_EQ(normalized(result.spec), normalized(hand));
  EXPECT_EQ(initial_states(result.initial_distribution),
            std::vector<std::uint32_t>{result.spec.id("X")});
  EXPECT_TRUE(closure_matches(result));
}

TEST(ProtocolCompiler, FixedCountTriggerRoundTripsOntoHandWrittenSpec) {
  const std::uint32_t threshold = 5;
  const auto result = compile_bounded(FixedCountTrigger{threshold}, 1);
  const FiniteSpec hand = fixed_count_trigger_spec(threshold);
  EXPECT_EQ(result.num_states(), threshold + 1);  // c0..c4, t
  EXPECT_EQ(state_names(result.spec), state_names(hand));
  EXPECT_EQ(normalized(result.spec), normalized(hand));
  EXPECT_TRUE(closure_matches(result));
}

TEST(ProtocolCompiler, HeadsRunTriggerHasExactDyadicRates) {
  const std::uint32_t run = 3;
  const auto result = compile_bounded(HeadsRunTrigger{run}, 1);
  EXPECT_EQ(result.num_states(), run + 1);  // r0..r2, t
  const auto& spec = result.spec;
  // (r2, r2): heads on either side terminates and infects both — mass 3/4;
  // tails-tails resets both to r0 — mass 1/4.  Dyadic sums must be exact so
  // the dispatch table can classify cells without tolerance.
  const std::uint32_t r2 = spec.id("r2"), r0 = spec.id("r0"), t = spec.id("t");
  EXPECT_EQ(spec.total_rate(r2, r2), 1.0);
  double to_tt = 0.0, to_r0 = 0.0;
  for (const auto& tr : spec.transitions()) {
    if (tr.in_receiver != r2 || tr.in_sender != r2) continue;
    if (tr.out_receiver == t && tr.out_sender == t) to_tt += tr.rate;
    if (tr.out_receiver == r0 && tr.out_sender == r0) to_r0 += tr.rate;
  }
  EXPECT_EQ(to_tt, 0.75);
  EXPECT_EQ(to_r0, 0.25);
  EXPECT_TRUE(closure_matches(result));
}

TEST(ProtocolCompiler, GeometricTriggerInitialDistributionIsExact) {
  // threshold 2, cap 4: P(terminated at birth) = P(min(g, 4) > 2) = 1/4.
  const auto result = compile_bounded(GeometricTrigger{2}, 4);
  ASSERT_EQ(result.num_states(), 2u);
  EXPECT_EQ(result.initial_distribution[result.spec.id("q")], 0.75);
  EXPECT_EQ(result.initial_distribution[result.spec.id("t")], 0.25);
}

TEST(ProtocolCompiler, GeometricTriggerBelowCapNeverFires) {
  // cap 2 <= threshold 2: min(g, 2) > 2 is impossible — the trigger state is
  // not even reachable, so the compiled protocol has a single silent state.
  const auto result = compile_bounded(GeometricTrigger{2}, 2);
  EXPECT_EQ(result.num_states(), 1u);
  EXPECT_EQ(result.num_transitions(), 0u);
}

// -------------------------------------------------- golden: semilinear -----

/// Agent-level threshold predicate [x >= c], mirroring `threshold_spec`.
struct ThresholdAgent {
  std::uint32_t c = 2;

  struct State {
    bool follower = false;
    std::uint32_t tokens = 0;
    bool output = false;
  };

  template <RandomSource R>
  State initial(R& rng) const {
    State s;
    s.tokens = rng.coin() ? 1 : 0;
    s.output = s.tokens >= c;
    return s;
  }

  template <RandomSource R>
  void interact(State& receiver, State& sender, R&) const {
    if (!receiver.follower && !sender.follower) {
      receiver.tokens = std::min(receiver.tokens + sender.tokens, c);
      receiver.output = receiver.tokens >= c;
      sender.follower = true;
      sender.tokens = 0;
      sender.output = receiver.output;
    } else if (receiver.follower && !sender.follower) {
      receiver.output = sender.tokens >= c;
    } else if (!receiver.follower && sender.follower) {
      sender.output = receiver.tokens >= c;
    }
  }

  std::string state_label(const State& s) const {
    return s.follower ? (s.output ? "F1" : "F0") : "L" + std::to_string(s.tokens);
  }

  void saturate(State& s, std::uint32_t) const {
    s.tokens = std::min(s.tokens, c);
    if (s.follower) {
      s.tokens = 0;
    } else {
      s.output = s.tokens >= c;  // leaders' output is derived from tokens
    }
  }
};

TEST(ProtocolCompiler, ThresholdAgentRoundTripsOntoSemilinearSpec) {
  const std::uint32_t c = 3;
  const auto result = compile_bounded(ThresholdAgent{c}, 1);
  const FiniteSpec hand = threshold_spec(c);
  EXPECT_EQ(state_names(result.spec), state_names(hand));
  EXPECT_EQ(normalized(result.spec), normalized(hand));
  EXPECT_TRUE(closure_matches(result));
}

/// Agent-level parity predicate, mirroring `parity_spec`.
struct ParityAgent {
  struct State {
    bool follower = false;
    bool bit = false;
  };

  template <RandomSource R>
  State initial(R& rng) const {
    return State{false, rng.coin()};
  }

  template <RandomSource R>
  void interact(State& receiver, State& sender, R&) const {
    if (!receiver.follower && !sender.follower) {
      receiver.bit = receiver.bit != sender.bit;
      sender.follower = true;
      sender.bit = receiver.bit;
    } else if (receiver.follower && !sender.follower) {
      receiver.bit = sender.bit;
    } else if (!receiver.follower && sender.follower) {
      sender.bit = receiver.bit;
    }
  }

  std::string state_label(const State& s) const {
    return (s.follower ? "F" : "L") + std::string(s.bit ? "1" : "0");
  }

  void saturate(State&, std::uint32_t) const {}
};

TEST(ProtocolCompiler, ParityAgentRoundTripsOntoSemilinearSpec) {
  const auto result = compile_bounded(ParityAgent{}, 1);
  const FiniteSpec hand = parity_spec();
  EXPECT_EQ(state_names(result.spec), state_names(hand));
  EXPECT_EQ(normalized(result.spec), normalized(hand));
  EXPECT_TRUE(closure_matches(result));
}

// ------------------------------------------------- headline constructions --

TEST(ProtocolCompiler, TinyLogSizeCompilesToExpectedStateCount) {
  const auto proto = log_size_tiny();
  const auto result =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  // Golden count for the tiny preset (cap 2, Tm 4, Em 1, offset 1); a change
  // here means the reachable space of the compiled regime changed.
  EXPECT_EQ(result.num_states(), 256u);
  EXPECT_TRUE(closure_matches(result));
  // Exactly one initial state: every agent starts as the default (X) state.
  const auto init = initial_states(result.initial_distribution);
  ASSERT_EQ(init.size(), 1u);
  EXPECT_EQ(result.initial_distribution[init[0]], 1.0);
  EXPECT_EQ(result.states[init[0]].role, Role::X);
  result.spec.validate();  // rate discipline holds for every pair
}

TEST(ProtocolCompiler, CompiledSpecFeedsCountSimulators) {
  const auto proto = log_size_tiny();
  const auto result =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  BatchedCountSimulation sim(result.spec, 11);
  Rng seeder(13);
  result.seed_initial(sim, 100000, seeder);
  EXPECT_EQ(sim.population_size(), 100000u);
  sim.advance_time(60.0);
  // Partition must have consumed every X and split the population ~ in half
  // (Lemma 3.2); by parallel time 60 the tiny regime has finished (all done).
  const auto counts = sim.counts();
  EXPECT_EQ(result.count_matching(counts, [](const auto& s) { return s.role == Role::X; }), 0u);
  const auto workers =
      result.count_matching(counts, [](const auto& s) { return s.role == Role::A; });
  EXPECT_GT(workers, 45000u);
  EXPECT_LT(workers, 55000u);
  EXPECT_EQ(result.count_matching(counts, [](const auto& s) { return !s.protocol_done; }), 0u);
}

TEST(ProtocolCompiler, StateExplosionGuardThrows) {
  const auto proto = log_size_tiny();
  CompileOptions opts;
  opts.max_states = 16;
  EXPECT_THROW(
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap(), opts)
          .compile(),
      std::invalid_argument);
}

}  // namespace
}  // namespace pops
