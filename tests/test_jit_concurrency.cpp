// Concurrency tests for the sharded JIT (compile/lazy.hpp +
// sim/dispatch.hpp) and the parallel eager closure
// (compile/compiler.hpp):
//
//   * thread-count invariance — lazy trials at threads = 1, 2, 8 produce
//     identical per-seed observable results, and leave behind the same
//     interned state set and compiled pair count (ids may differ with
//     scheduling; the typed sets must not);
//   * shard contention — 8 threads compiling disjoint pair sets through
//     compile_pair directly, checked cell-by-cell against a single-threaded
//     reference table;
//   * concurrent mixed simulators — batched engines and agent-level table
//     oracles (AgentSimulation<TableProtocol>) stepping one shared warm-ish
//     table from many threads while it still compiles;
//   * eager determinism — ProtocolCompiler::compile(t) is bit-identical
//     (names, transitions, distribution, counters) for every thread count.
//
// The whole file also runs under the TSan preset (scripts/tsan_check.sh) so
// the lock-free find/publish protocol is exercised under the race detector.

// Shrink the parallel closure's pair-batch cap so the bit-identity test
// exercises batch splits (the default 2^22 cap is never hit by the small
// test presets).  Must precede the compiler.hpp include.
#define POPS_COMPILE_BATCH_PAIRS 4096

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "core/executor.hpp"
#include "harness/equivalence.hpp"
#include "harness/trials.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/table_protocol.hpp"

namespace pops {
namespace {

using LS = LogSizeEstimation;
using BLS = Bounded<LS>;

/// Pin the process-wide executor to 8 real workers for the suite (the
/// default width is hardware concurrency — 1 on single-core machines,
/// which would quietly serialize every "concurrent" path below) and
/// restore the default afterwards.
class JitConcurrency : public ::testing::Test {
 protected:
  void SetUp() override { Executor::set_threads(8); }
  void TearDown() override { Executor::set_threads(0); }
};

bool worker_observable(const LS::State& s) { return s.role == Role::A; }

/// Interned states as a label set (ids vary with scheduling; labels must
/// not).  Also asserts label injectivity: with lazy registration the JIT
/// never runs the registry's duplicate check itself (eager compiles do,
/// at materialize_names), so a state_label() collapsing distinct typed
/// states must be caught here rather than dedup'd away by the std::set.
std::set<std::string> interned_labels(const LazyCompiledSpec<BLS>& lazy) {
  std::set<std::string> labels;
  for (std::uint32_t id = 0; id < lazy.num_states(); ++id) {
    labels.insert(lazy.spec().name(id));
  }
  EXPECT_EQ(labels.size(), lazy.num_states()) << "state labels are not injective";
  return labels;
}

// ------------------------------------------------ thread-count invariance ---

TEST_F(JitConcurrency, LazyTrialResultsAreThreadCountInvariant) {
  const auto proto = log_size_tiny();
  std::vector<std::uint64_t> reference_values;
  std::set<std::string> reference_labels;
  std::size_t reference_pairs = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    LazyCompiledSpec<BLS> lazy(proto, proto.geometric_cap());
    const auto values = lazy_trial_values(lazy, /*n=*/2000, /*interactions=*/40000,
                                          /*trials=*/12, /*master_seed=*/0xC0DE,
                                          worker_observable, threads);
    const auto labels = interned_labels(lazy);
    if (threads == 1) {
      reference_values = values;
      reference_labels = labels;
      reference_pairs = lazy.pairs_compiled();
      ASSERT_GT(lazy.num_states(), 30u);
      ASSERT_GT(reference_pairs, 200u);
    } else {
      EXPECT_EQ(reference_values, values)
          << "per-seed trial results diverged at threads=" << threads;
      EXPECT_EQ(reference_labels, labels)
          << "interned state set diverged at threads=" << threads;
      EXPECT_EQ(reference_pairs, lazy.pairs_compiled())
          << "compiled pair set size diverged at threads=" << threads;
    }
    // Replay trial 0 on the warm table: it reproduces its value, and at
    // n = 2000 its epochs take the short-epoch (sequential) sampler — so
    // the concurrent trials above ran that path on the shared table.
    BatchedCountSimulation replay(lazy, trial_seed(0xC0DE ^ 0xBA7C4EDULL, 0));
    Rng seeder(trial_seed(0xC0DE ^ 0x5EEDULL, 0));
    lazy.seed_initial(replay, 2000, seeder);
    replay.steps(40000);
    EXPECT_EQ(lazy.count_matching(replay.counts(), worker_observable), values[0]);
    EXPECT_GT(replay.stats().sequential, 0u) << "threads=" << threads;
  }
}

// ---------------------------------------------------- shard contention ------

/// 8 threads drive compile_pair over disjoint slices of the full S×S pair
/// grid of a warm snapshot; every cell must match a single-threaded
/// reference compile (compared through labels — warm-up is single-threaded,
/// so the first S ids agree; outputs may be newer states whose ids differ).
TEST_F(JitConcurrency, ShardContentionCompilesDisjointPairSets) {
  const auto proto = log_size_tiny();

  // Single-threaded warm-up interns an identical prefix in both instances.
  LazyCompiledSpec<BLS> stress(proto, proto.geometric_cap());
  LazyCompiledSpec<BLS> reference(proto, proto.geometric_cap());
  for (LazyCompiledSpec<BLS>* lazy : {&stress, &reference}) {
    BatchedCountSimulation sim(*lazy, 0xF00D);
    Rng seeder(3);
    lazy->seed_initial(sim, 5000, seeder);
    sim.advance_time(12.0);
  }
  const std::uint32_t s_states = stress.num_states();
  ASSERT_EQ(s_states, reference.num_states());
  ASSERT_GT(s_states, 30u);

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&stress, s_states, t] {
      for (std::uint64_t p = t; p < static_cast<std::uint64_t>(s_states) * s_states;
           p += kThreads) {
        stress.compile_pair(static_cast<std::uint32_t>(p / s_states),
                            static_cast<std::uint32_t>(p % s_states));
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::uint32_t r = 0; r < s_states; ++r) {
    for (std::uint32_t s = 0; s < s_states; ++s) reference.compile_pair(r, s);
  }
  ASSERT_EQ(stress.pairs_compiled(), reference.pairs_compiled());
  EXPECT_EQ(interned_labels(stress), interned_labels(reference));

  using NamedEntry = std::tuple<std::string, std::string, double>;
  for (std::uint32_t r = 0; r < s_states; ++r) {
    for (std::uint32_t s = 0; s < s_states; ++s) {
      const auto got = stress.table().find(r, s);
      const auto want = reference.table().find(r, s);
      ASSERT_TRUE(got.present);
      ASSERT_TRUE(want.present);
      ASSERT_EQ(got.kind, want.kind);
      std::multiset<NamedEntry> got_entries, want_entries;
      for (const auto* e = got.begin; e != got.end; ++e) {
        got_entries.emplace(stress.spec().name(e->out_receiver),
                            stress.spec().name(e->out_sender), e->rate);
      }
      for (const auto* e = want.begin; e != want.end; ++e) {
        want_entries.emplace(reference.spec().name(e->out_receiver),
                             reference.spec().name(e->out_sender), e->rate);
      }
      ASSERT_EQ(got_entries, want_entries)
          << "cell (" << stress.spec().name(r) << ", " << stress.spec().name(s)
          << ") diverged under shard contention";
    }
  }
}

// ------------------------------------------- concurrent mixed simulators ----

TEST_F(JitConcurrency, MixedSimulatorsShareOneGrowingTable) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<BLS> lazy(proto, proto.geometric_cap());
  std::vector<std::uint64_t> totals(6, 0);
  std::vector<std::thread> pool;
  pool.reserve(totals.size());
  for (std::size_t t = 0; t < totals.size(); ++t) {
    pool.emplace_back([&lazy, &totals, t] {
      if (t % 2 == 0) {
        BatchedCountSimulation sim(lazy, 0xAB + t);
        Rng seeder(17 + t);
        lazy.seed_initial(sim, 20000, seeder);
        sim.advance_time(25.0);
        totals[t] = sim.population_size();
      } else {
        AgentSimulation<TableProtocol> sim(TableProtocol(lazy), 3000, 0xAB + t);
        sim.steps(120000);
        for (const auto c : state_counts(sim)) totals[t] += c;
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t t = 0; t < totals.size(); ++t) {
    EXPECT_EQ(totals[t], t % 2 == 0 ? 20000u : 3000u) << "population leaked in thread " << t;
  }
  EXPECT_GT(lazy.num_states(), 30u);
  // The fragment must still be exactly the eager closure restricted to the
  // touched pairs: spot-check that every interned label exists eagerly.
  const auto eager =
      ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
  for (std::uint32_t id = 0; id < lazy.num_states(); ++id) {
    ASSERT_TRUE(eager.spec.has_state(lazy.spec().name(id)))
        << "concurrently interned state missing from eager closure: "
        << lazy.spec().name(id);
  }
}

// ----------------------------------------------------- eager determinism ----

/// Compile `proto` at width 1 (the sequential sweep) and at widths 2, 3
/// and 8 (the parallel closure, split into 4096-pair batches), and require
/// the same names, transitions, initial distribution and counters.
template <typename Proto>
void expect_eager_compile_width_invariant(const Proto& proto) {
  ProtocolCompiler<Proto> sequential(proto, proto.geometric_cap());
  const auto ref = sequential.compile(1);
  for (const unsigned threads : {2u, 3u, 8u}) {
    ProtocolCompiler<Proto> parallel(proto, proto.geometric_cap());
    const auto got = parallel.compile(threads);
    ASSERT_EQ(ref.num_states(), got.num_states()) << "threads=" << threads;
    for (std::uint32_t i = 0; i < ref.num_states(); ++i) {
      ASSERT_EQ(ref.spec.name(i), got.spec.name(i))
          << "state id order diverged at threads=" << threads;
    }
    const auto& ta = ref.spec.transitions();
    const auto& tb = got.spec.transitions();
    ASSERT_EQ(ta.size(), tb.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_TRUE(ta[i].in_receiver == tb[i].in_receiver &&
                  ta[i].in_sender == tb[i].in_sender &&
                  ta[i].out_receiver == tb[i].out_receiver &&
                  ta[i].out_sender == tb[i].out_sender && ta[i].rate == tb[i].rate)
          << "transition " << i << " diverged at threads=" << threads;
    }
    EXPECT_EQ(ref.initial_distribution, got.initial_distribution);
    EXPECT_EQ(ref.pairs_explored, got.pairs_explored);
    EXPECT_EQ(ref.paths_explored, got.paths_explored);
  }
}

TEST_F(JitConcurrency, ParallelEagerCompileIsBitIdentical) {
  expect_eager_compile_width_invariant(log_size_tiny());
  // A second protocol shape: 792 states, so ~627k pairs over ~150 batches.
  expect_eager_compile_width_invariant(bounded_majority(0.55));
}

}  // namespace
}  // namespace pops
