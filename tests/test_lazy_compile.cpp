// Tests for the lazy/JIT compilation path (compile/lazy.hpp): the lazily
// interned state set must be a subset of the eager closure with identical
// transitions on every touched pair, lazy runs must be deterministic, and
// both count simulators must drive the JIT hook correctly (including state
// growth mid-run).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "proto/partition.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/count_simulation.hpp"

namespace pops {
namespace {

using LS = LogSizeEstimation;

// ------------------------------------------------- subset + cell parity ----

/// Run the lazy pipeline on the tiny log-size preset, then eagerly compile
/// the same protocol and check: every interned state is in the eager
/// closure, and every compiled pair's cell matches the eager cell exactly
/// (as label-keyed transition sets — id numbering differs between the two
/// discovery orders).
TEST(LazyCompiledSpec, TouchedFragmentMatchesEagerClosure) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LS>> lazy(proto, proto.geometric_cap());
  BatchedCountSimulation sim(lazy, 0xA11CE);
  Rng seeder(7);
  lazy.seed_initial(sim, 20000, seeder);
  sim.advance_time(50.0);
  ASSERT_GT(lazy.num_states(), 50u);
  ASSERT_GT(lazy.pairs_compiled(), 1000u);

  const auto eager =
      ProtocolCompiler<Bounded<LS>>(proto, proto.geometric_cap()).compile();
  // Subset: every lazy label names an eager state.
  for (std::uint32_t id = 0; id < lazy.num_states(); ++id) {
    ASSERT_TRUE(eager.spec.has_state(lazy.spec().name(id)))
        << "lazily interned state missing from eager closure: "
        << lazy.spec().name(id);
  }
  EXPECT_LT(lazy.num_states(), eager.num_states() + 1u);

  // Cell parity on every compiled pair, via the eager dispatch view.
  const DispatchTable eager_table(eager.spec);
  using NamedEntry = std::tuple<std::string, std::string, double>;
  std::size_t checked = 0;
  for (std::uint32_t r = 0; r < lazy.num_states(); ++r) {
    for (std::uint32_t s = 0; s < lazy.num_states(); ++s) {
      const auto lazy_cell = lazy.table().find(r, s);
      if (!lazy_cell.present) continue;
      const auto eager_cell = eager_table.find(eager.spec.id(lazy.spec().name(r)),
                                               eager.spec.id(lazy.spec().name(s)));
      std::multiset<NamedEntry> lazy_entries, eager_entries;
      for (const auto* e = lazy_cell.begin; e != lazy_cell.end; ++e) {
        lazy_entries.emplace(lazy.spec().name(e->out_receiver),
                             lazy.spec().name(e->out_sender), e->rate);
      }
      for (const auto* e = eager_cell.begin; e != eager_cell.end; ++e) {
        eager_entries.emplace(eager.spec.name(e->out_receiver),
                              eager.spec.name(e->out_sender), e->rate);
      }
      ASSERT_EQ(lazy_entries, eager_entries)
          << "cell (" << lazy.spec().name(r) << ", " << lazy.spec().name(s)
          << ") diverged between lazy and eager compilation";
      ASSERT_EQ(lazy_cell.kind, eager_cell.kind);
      ++checked;
    }
  }
  EXPECT_EQ(checked, lazy.pairs_compiled());
}

// ----------------------------------------------------------- determinism ----

TEST(LazyCompiledSpec, LazyRunsAreDeterministicUnderFixedSeed) {
  const auto proto = log_size_tiny();
  std::vector<std::uint64_t> first;
  for (int rep = 0; rep < 2; ++rep) {
    LazyCompiledSpec<Bounded<LS>> lazy(proto, proto.geometric_cap());
    BatchedCountSimulation sim(lazy, 0xDE7);
    Rng seeder(13);
    lazy.seed_initial(sim, 50000, seeder);
    sim.advance_time(20.0);
    if (rep == 0) {
      first = sim.counts();
    } else {
      EXPECT_EQ(first, sim.counts()) << "JIT consumed simulation randomness";
    }
  }
}

/// For a protocol whose lazy and eager discovery orders coincide (partition:
/// the only first contact is (X, X), which interns A and S in the eager
/// order too), the compiled fragments share ids — so lazy and eager
/// simulators with the same seed produce bit-identical trajectories.
TEST(LazyCompiledSpec, PartitionLazyMatchesEagerTrajectoryExactly) {
  const auto result = compile_bounded(PartitionProtocol{}, 1);
  LazyCompiledSpec<Bounded<PartitionProtocol>> lazy(
      Bounded<PartitionProtocol>(PartitionProtocol{}, 1), 1);

  CountSimulation eager_seq(result.spec, 0xBEE);
  CountSimulation lazy_seq(lazy, 0xBEE);
  BatchedCountSimulation eager_bat(result.spec, 0xFAB);
  BatchedCountSimulation lazy_bat(lazy, 0xFAB);
  const std::uint32_t x = result.spec.id("X");
  ASSERT_EQ(lazy.spec().name(x), "X");
  for (auto* sim : {&eager_seq, &lazy_seq}) sim->set_count(x, 30000);
  for (auto* sim : {&eager_bat, &lazy_bat}) sim->set_count(x, 30000);
  for (int i = 0; i < 8; ++i) {
    eager_seq.steps(3000);
    lazy_seq.steps(3000);
    ASSERT_EQ(eager_seq.counts(), lazy_seq.counts()) << "sequential diverged at " << i;
    eager_bat.steps(15000);
    lazy_bat.steps(15000);
    ASSERT_EQ(eager_bat.counts(), lazy_bat.counts()) << "batched diverged at " << i;
  }
}

// ---------------------------------------------------------- misc behavior ---

TEST(LazyCompiledSpec, CountSimulationGrowsSamplerAsStatesIntern) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LS>> lazy(proto, proto.geometric_cap());
  ASSERT_EQ(lazy.num_states(), 1u);  // just the initial X state
  CountSimulation sim(lazy, 0x5EED);
  sim.set_count(0, 5000);
  sim.steps(200000);
  EXPECT_GT(lazy.num_states(), 20u);
  EXPECT_EQ(sim.population_size(), 5000u);
  std::uint64_t total = 0;
  for (const auto c : sim.counts()) total += c;
  EXPECT_EQ(total, 5000u);
}

TEST(LazyCompiledSpec, InitialDistributionMatchesEager) {
  const auto proto = bounded_majority(0.55);
  LazyCompiledSpec<Bounded<Composed<VotedMajorityStage>>> lazy(proto, proto.geometric_cap());
  const auto eager =
      ProtocolCompiler<Bounded<Composed<VotedMajorityStage>>>(proto, proto.geometric_cap())
          .compile();
  // Both enumerate the same initial choice tree in the same order, so the
  // initial ids and masses agree exactly.
  const auto lazy_init = lazy.initial_states();
  const auto eager_init = eager.initial_states();
  ASSERT_EQ(lazy_init.size(), eager_init.size());
  for (std::size_t i = 0; i < lazy_init.size(); ++i) {
    EXPECT_EQ(lazy.spec().name(lazy_init[i]), eager.spec.name(eager_init[i]));
    EXPECT_EQ(lazy.initial_distribution()[lazy_init[i]],
              eager.initial_distribution[eager_init[i]]);
  }
}

/// A JIT guard tripped mid-run must throw out of `advance_time`, not crash.
template <typename Sim>
void expect_guard_throws(const CompileOptions& opts) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LS>> lazy(proto, proto.geometric_cap(), opts);
  Sim sim(lazy, 1);
  Rng seeder(2);
  lazy.seed_initial(sim, 1000, seeder);
  EXPECT_THROW(sim.advance_time(10.0), std::invalid_argument);
}

TEST(LazyCompiledSpec, PairGuardThrows) {
  // Two guards: max_pairs = 3 trips in compile_pair's pair count, and
  // max_states one above the initial states trips when the JIT interns
  // its second new state.
  const auto proto = log_size_tiny();
  CompileOptions pairs;
  pairs.max_pairs = 3;
  CompileOptions states;
  states.max_states =
      LazyCompiledSpec<Bounded<LS>>(proto, proto.geometric_cap()).num_states() + 1;
  for (const CompileOptions& opts : {pairs, states}) {
    expect_guard_throws<BatchedCountSimulation>(opts);
    expect_guard_throws<CountSimulation>(opts);
  }
}

}  // namespace
}  // namespace pops
