// Batched epochs are serial, but a run must still be per-seed bit-invariant
// at every executor width: the width may change wall-clock, never output.
// These tests pin that contract where a regression would show:
//
//   * a 600-state spread spec whose epochs take the shuffle-pairing path,
//     compared bit-for-bit at widths 1/2/8;
//   * the dense-pairing path (epidemic at n = 10⁹ — tiny occupied grid) for
//     the same widths;
//   * the lazy/JIT path, compared by state *name* (interning order may
//     differ, labels may not);
//   * batched trials on the pool: run_trials_parallel at width 8, each
//     trial a serial batched run, must equal the fully serial path, trial
//     for trial.
//
// The widths use real worker threads even on small machines, which is what
// gives the TSan run of this binary teeth (scripts/tsan_check.sh runs it at
// POPS_THREADS = 1, 2, 8).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "core/executor.hpp"
#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "sim/batched_count_simulation.hpp"

namespace pops {
namespace {

/// A synthetic spread protocol over `k` states, dense enough in occupied
/// classes that every epoch pairs by the sender shuffle.  A mix of
/// deterministic, randomized-with-residual, and null cells exercises every
/// apply_cell branch, including the binomial splits.
FiniteSpec make_spread_spec(std::uint32_t k) {
  FiniteSpec spec;
  for (std::uint32_t i = 0; i < k; ++i) spec.state("s" + std::to_string(i));
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      switch ((a * 7 + b * 3) % 5) {
        case 0:
          spec.add(a, b, (a + b + 1) % k, (3 * a + b + 7) % k);
          break;
        case 1:
          spec.add(a, b, (a + 2 * b) % k, b, 0.6);
          spec.add(a, b, (a + 5) % k, (b + 11) % k, 0.3);  // residual null mass
          break;
        default:
          break;  // null cell
      }
    }
  }
  spec.validate();
  return spec;
}

const FiniteSpec& spread_spec() {
  static const FiniteSpec spec = make_spread_spec(600);
  return spec;
}

/// Run the spread spec at population n for `steps` interactions and return
/// the final configuration (state ids are construction-ordered, hence
/// width-independent for an eager spec).
std::vector<std::uint64_t> run_spread(std::uint64_t n, std::uint64_t steps,
                                      std::uint64_t seed) {
  const std::uint32_t k = spread_spec().num_states();
  BatchedCountSimulation sim(spread_spec(), seed);
  for (std::uint32_t i = 0; i < k; ++i) sim.set_count(i, n / k);
  sim.steps(steps);
  return sim.counts();
}

class ParallelEpochs : public ::testing::Test {
 protected:
  void TearDown() override { Executor::set_threads(0); }
};

TEST_F(ParallelEpochs, ShufflePathIsBitInvariantAcrossWidths) {
  // n = 10⁹ over 600 occupied states: epochs of t ≈ 28000 interactions take
  // the shuffle path; the non-multiple step count also exercises a
  // truncated final epoch.
  auto run = [](unsigned threads) {
    Executor::set_threads(threads);
    return run_spread(1'000'000'000, 250'000, 0xA5EED);
  };
  const auto w1 = run(1);
  const auto w2 = run(2);
  const auto w8 = run(8);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST_F(ParallelEpochs, DistinctSeedsStayDistinct) {
  // Guard against a substream-derivation bug collapsing seeds: two master
  // seeds must not replay each other's epochs at any width.
  Executor::set_threads(8);
  const auto a = run_spread(1'000'000'000, 120'000, 0x111);
  const auto b = run_spread(1'000'000'000, 120'000, 0x222);
  EXPECT_NE(a, b);
}

TEST_F(ParallelEpochs, DensePathIsBitInvariantAcrossWidths) {
  // Epidemic at n = 10⁹: two occupied classes, so pairing always takes the
  // dense contingency path on the root stream.
  auto run = [](unsigned threads) {
    Executor::set_threads(threads);
    BatchedCountSimulation sim(epidemic_spec(), 0xD15EA5E);
    sim.set_count("S", 1'000'000'000 - 1000);
    sim.set_count("I", 1000);
    sim.steps(100'000);
    return sim.counts();
  };
  const auto w1 = run(1);
  const auto w2 = run(2);
  const auto w8 = run(8);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST_F(ParallelEpochs, JitRunsAreWidthInvariantByStateName) {
  // Lazy/JIT mode: state ids depend on interning order, which concurrent
  // compilation may permute — but the *named* configuration may not change.
  auto run = [](unsigned threads) {
    Executor::set_threads(threads);
    const auto proto = log_size_tiny();
    LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
    BatchedCountSimulation sim(lazy, 0xCAFE);
    Rng seeder(7);
    lazy.seed_initial(sim, 2'000'000, seeder);
    sim.advance_time(10.0);
    std::map<std::string, std::uint64_t> by_name;
    const auto counts = sim.counts();
    for (std::uint32_t id = 0; id < counts.size(); ++id) {
      if (counts[id] != 0) by_name[lazy.spec().name(id)] = counts[id];
    }
    return by_name;
  };
  const auto w1 = run(1);
  const auto w2 = run(2);
  const auto w8 = run(8);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
}

TEST_F(ParallelEpochs, TrialsTimesEpochsNestingMatchesSerial) {
  // Parallel trials fan out over the executor while each trial runs its
  // epochs on its own thread; per-seed results must equal the fully serial
  // path.
  auto trial = [](std::uint64_t seed, std::uint64_t) {
    return run_spread(400'000'000, 120'000, seed);
  };
  Executor::set_threads(1);
  const auto serial = run_trials(6, 0xD1CE, trial);
  Executor::set_threads(8);
  const auto nested = run_trials_parallel(6, 0xD1CE, trial, 8);
  EXPECT_EQ(nested, serial);
}

}  // namespace
}  // namespace pops
