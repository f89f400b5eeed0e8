// Cross-module integration tests: the full pipelines a user of the library
// would actually run, exercised end-to-end with assertions that tie modules
// together (protocol output vs stats-module ground truth, impossibility
// contrast, composition over the real estimator).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/leader_terminating_estimation.hpp"
#include "core/log_size_estimation.hpp"
#include "core/upper_bound_estimation.hpp"
#include "harness/trials.hpp"
#include "proto/max_geometric_estimate.hpp"
#include "sim/agent_simulation.hpp"
#include "stats/bounds.hpp"
#include "stats/geometric.hpp"
#include "stats/summary.hpp"
#include "termination/terminating_toys.hpp"

namespace pops {
namespace {

TEST(Integration, ProtocolOutputMatchesStatsGroundTruth) {
  // The protocol's output is (a noisy version of) the average of K maxima of
  // ~n/2 geometrics plus 1.  The stats module predicts E ~ log(n/2) + δ0 + 1
  // ~ log n + 0.33 before integer floor.  Protocol estimates across trials
  // should straddle log n within ~2.
  constexpr std::uint64_t kN = 1024;
  Summary estimates;
  for (int trial = 0; trial < 6; ++trial) {
    AgentSimulation<LogSizeEstimation> sim(LogSizeEstimation{}, kN, trial_seed(211, trial));
    ASSERT_GE(sim.run_until(
                  [](const AgentSimulation<LogSizeEstimation>& s) { return converged(s); },
                  50.0, 5e6),
              0.0);
    estimates.add(static_cast<double>(estimate(sim)));
  }
  const double predicted = max_geometric_mean_exact(kN / 2) + 1.0;
  EXPECT_NEAR(estimates.mean(), predicted, 2.0);
}

TEST(Integration, AdditiveVsMultiplicativeEstimators) {
  // Theorem 3.1 vs the Alistarh et al. baseline: on the same population the
  // main protocol's additive error should beat the baseline's at moderate n.
  constexpr std::uint64_t kN = 4096;  // log n = 12
  const double logn = 12.0;
  struct Trial {
    double main_time, main_estimate, base_time, base_estimate;
  };
  const auto trials = run_trials_parallel(4, 223, [](std::uint64_t seed, std::uint64_t i) {
    AgentSimulation<LogSizeEstimation> main_sim(LogSizeEstimation{}, kN, seed);
    const double main_time = main_sim.run_until(
        [](const AgentSimulation<LogSizeEstimation>& s) { return converged(s); }, 50.0, 5e6);
    AgentSimulation<MaxGeometricEstimate> base_sim(MaxGeometricEstimate{}, kN,
                                                   trial_seed(227, i));
    const double base_time = base_sim.run_until(
        [](const AgentSimulation<MaxGeometricEstimate>& s) { return converged(s); }, 5.0,
        1e6);
    return Trial{main_time, static_cast<double>(estimate(main_sim)), base_time,
                 static_cast<double>(base_sim.agent(0).estimate)};
  });
  Summary main_err, base_err;
  for (const Trial& t : trials) {
    ASSERT_GE(t.main_time, 0.0);
    main_err.add(std::abs(t.main_estimate - logn));
    ASSERT_GE(t.base_time, 0.0);
    base_err.add(std::abs(t.base_estimate - logn));
  }
  EXPECT_LE(main_err.mean(), base_err.mean() + 1.0)
      << "the additive estimator should not be worse than the max-geometric one";
  EXPECT_LE(main_err.max(), 5.7);
}

TEST(Integration, TerminationDichotomy) {
  // The heart of the paper: a dense uniform protocol's signal time is flat in
  // n; the leader-driven protocol's grows.  Measure both on the same sizes.
  auto dense_signal = [](std::uint64_t n, std::uint64_t seed) {
    AgentSimulation<FixedCountTrigger> sim(FixedCountTrigger{60}, n, seed);
    return sim.run_until(
        [](const AgentSimulation<FixedCountTrigger>& s) { return any_terminated(s); }, 1.0,
        1e6);
  };
  auto leader_signal = [](std::uint64_t n, std::uint64_t seed) {
    LeaderTerminatingEstimation proto;
    AgentSimulation<LeaderTerminatingEstimation> sim(proto, n, seed);
    Rng rng(seed ^ 0x5555);
    sim.set_state(0, proto.make_leader(rng));
    return sim.run_until(
        [](const AgentSimulation<LeaderTerminatingEstimation>& s) {
          return any_terminated(s);
        },
        25.0, 1e7);
  };
  // Four independent runs, seeded 1..4 as listed, fanned out over the
  // executor; the trial seed is unused.
  const auto signal = run_trials_parallel(4, 0, [&](std::uint64_t, std::uint64_t i) {
    switch (i) {
      case 0: return dense_signal(128, 1);
      case 1: return dense_signal(4096, 2);
      case 2: return leader_signal(128, 3);
      default: return leader_signal(2048, 4);
    }
  });
  for (const double t : signal) EXPECT_GE(t, 0.0);
  const double dense_small = signal[0], dense_large = signal[1];
  const double lead_small = signal[2], lead_large = signal[3];
  EXPECT_LT(dense_large, 2.0 * dense_small + 10.0) << "dense signal time must stay flat";
  EXPECT_GT(lead_large, 1.5 * lead_small) << "leader signal time must grow";
}

TEST(Integration, UpperBoundComposesFastAndSlowEstimators) {
  // End to end: running the combined protocol yields a value that is an upper
  // bound on log n AND within the fast protocol's accuracy band.
  constexpr std::uint64_t kN = 200;
  AgentSimulation<UpperBoundEstimation> sim(UpperBoundEstimation{}, kN, 5);
  ASSERT_GE(sim.run_until(
                [](const AgentSimulation<UpperBoundEstimation>& s) {
                  return fast_converged(s);
                },
                25.0, 1e7),
            0.0);
  sim.advance_time(static_cast<double>(kN) * 20.0);  // let the backup stabilize
  const double logn = std::log2(static_cast<double>(kN));
  for (const auto& a : sim.agents()) {
    const double r = sim.protocol().report(a);
    EXPECT_GE(r, logn);
    EXPECT_LE(r, logn + 11.0);
  }
}

TEST(Integration, BoundFunctionsCoverProtocolBehavior) {
  // Sanity link: the observed logSize2 of a converged run lies inside the
  // Lemma 3.8 band computed by the bounds module.
  constexpr std::uint64_t kN = 512;
  AgentSimulation<LogSizeEstimation> sim(LogSizeEstimation{}, kN, 7);
  ASSERT_GE(sim.run_until(
                [](const AgentSimulation<LogSizeEstimation>& s) { return converged(s); },
                50.0, 5e6),
            0.0);
  const auto band = bounds::logsize2_band(kN);
  const double v = sim.agent(0).log_size2;
  EXPECT_GE(v, band.lo - 1e-9);
  EXPECT_LE(v, band.hi + 1e-9);
}

}  // namespace
}  // namespace pops
