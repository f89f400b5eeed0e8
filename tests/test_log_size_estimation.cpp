// Tests for the main Log-Size-Estimation protocol (Theorem 3.1): convergence,
// accuracy, agreement, restart semantics, state-space bounds, time scaling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/log_size_estimation.hpp"
#include "harness/trials.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/metrics.hpp"
#include "sim/stepping.hpp"
#include "stats/summary.hpp"

namespace pops {
namespace {

using Sim = AgentSimulation<LogSizeEstimation>;

double run_to_convergence(Sim& sim, double max_time = 5e6, double check_dt = 50.0) {
  return sim.run_until([](const Sim& s) { return converged(s); }, check_dt, max_time);
}

/// One run to convergence: its time (negative at the cap) and estimate.
struct Converged {
  double time;
  std::int32_t estimate;
};

/// `trials` runs at population `n`, seeded trial_seed(master, i), fanned out
/// over the executor; results come back in trial order.
std::vector<Converged> converge_trials(std::uint64_t trials, std::uint64_t master,
                                       std::uint64_t n, double check_dt = 50.0) {
  return run_trials_parallel(trials, master, [=](std::uint64_t seed, std::uint64_t) {
    Sim sim(LogSizeEstimation{}, n, seed);
    const double t = run_to_convergence(sim, 5e6, check_dt);
    return Converged{t, t >= 0.0 ? estimate(sim) : 0};
  });
}

TEST(LogSizeEstimation, ConvergesAndAllAgentsAgree) {
  Sim sim(LogSizeEstimation{}, 500, 1);
  ASSERT_GE(run_to_convergence(sim), 0.0);
  const auto value = sim.agent(0).output;
  for (const auto& a : sim.agents()) {
    EXPECT_TRUE(a.protocol_done);
    EXPECT_TRUE(a.has_output);
    EXPECT_EQ(a.output, value);
  }
}

TEST(LogSizeEstimation, EstimateWithinPaperErrorBound) {
  // |k - log n| <= 5.7 w.p. >= 1 - 9/n; across trials at n = 1024 a failure
  // would be a ~1% event per trial — allow at most 1 in 12.
  constexpr std::uint64_t kN = 1024;
  const double logn = 10.0;
  int failures = 0;
  for (const auto& run : converge_trials(12, 3, kN)) {
    ASSERT_GE(run.time, 0.0);
    if (std::abs(static_cast<double>(run.estimate) - logn) > 5.7) ++failures;
  }
  EXPECT_LE(failures, 1);
}

TEST(LogSizeEstimation, EstimateTypicallyWithinTwo) {
  // Figure 2's empirical observation: the estimate is within 2 in practice.
  constexpr std::uint64_t kN = 2048;
  int within_two = 0;
  constexpr int kTrials = 8;
  for (const auto& run : converge_trials(kTrials, 5, kN)) {
    ASSERT_GE(run.time, 0.0);
    if (std::abs(static_cast<double>(run.estimate) - 11.0) <= 2.0) ++within_two;
  }
  EXPECT_GE(within_two, kTrials - 1);
}

TEST(LogSizeEstimation, WorksAcrossSizesParameterized) {
  for (std::uint64_t n : {64ULL, 256ULL, 1024ULL}) {
    Sim sim(LogSizeEstimation{}, n, 11 + n);
    ASSERT_GE(run_to_convergence(sim), 0.0) << "n=" << n;
    const double err =
        std::abs(static_cast<double>(estimate(sim)) - std::log2(static_cast<double>(n)));
    EXPECT_LE(err, 5.7) << "n=" << n;
  }
}

TEST(LogSizeEstimation, DeterministicGivenSeed) {
  Sim a(LogSizeEstimation{}, 300, 77), b(LogSizeEstimation{}, 300, 77);
  ASSERT_GE(run_to_convergence(a), 0.0);
  ASSERT_GE(run_to_convergence(b), 0.0);
  EXPECT_EQ(estimate(a), estimate(b));
  EXPECT_EQ(a.interactions(), b.interactions());
}

TEST(LogSizeEstimation, ConvergenceTimeScalesAsPolylog) {
  // Time should grow ~log^2 n: n -> 16n should much less than double it per
  // factor... concretely t(4096)/t(256) should be well below the linear
  // ratio 16 and the estimates of both within bounds.
  auto timed = [](std::uint64_t n, std::uint64_t master) {
    Summary times;
    for (const auto& run : converge_trials(3, master, n, 25.0)) {
      EXPECT_GE(run.time, 0.0);
      times.add(run.time);
    }
    return times;
  };
  const Summary small = timed(256, 13), large = timed(4096, 17);
  EXPECT_LT(large.mean() / small.mean(), 6.0);  // log^2 ratio ~ (12/8)^2 = 2.25
}

TEST(LogSizeEstimation, LogSize2WithinLemma38Band) {
  constexpr std::uint64_t kN = 1024;
  Sim sim(LogSizeEstimation{}, kN, 19);
  ASSERT_GE(run_to_convergence(sim), 0.0);
  // All agents share the max logSize2; it should lie in the Lemma 3.8 band.
  const double v = sim.agent(0).log_size2;
  for (const auto& a : sim.agents()) EXPECT_EQ(a.log_size2, v);
  EXPECT_GE(v, 10.0 - std::log2(std::log(1024.0)) - 1e-9);
  EXPECT_LE(v, 2.0 * 10.0 + 1.0 + 1e-9);
}

TEST(LogSizeEstimation, FieldRangesMatchLemma39Orders) {
  // Lemma 3.9's table: logSize2 <= 2 log n + 1, gr <= 2 log n,
  // epoch <= 11 log n, sum <= 22 log^2 n (all w.h.p.).  `time` can exceed its
  // in-epoch bound while a finished A waits to deposit, so we check it
  // against the threshold value 95 * logSize2 <= 95(2 log n + 1) plus slack.
  constexpr std::uint64_t kN = 512;
  const double logn = 9.0;
  Sim sim(LogSizeEstimation{}, kN, 23);
  FieldRangeRecorder rec;
  for_each_slice(sim, 100.0, 5e6, [&](const Sim& s) {
    record_field_ranges(s, rec);
    return !converged(s);
  });
  ASSERT_TRUE(converged(sim));
  EXPECT_LE(rec.max_value("logSize2"), 2 * logn + 1);
  EXPECT_LE(rec.max_value("gr"), 2 * logn);
  EXPECT_LE(rec.max_value("epoch"), 11 * logn);
  EXPECT_LE(rec.max_value("sum"), 22 * logn * logn);
}

TEST(LogSizeEstimation, RestartWipesDownstreamState) {
  // Drive two agents manually: give the sender a larger logSize2 and check
  // the receiver restarts.
  LogSizeEstimation proto;
  Rng rng(29);
  LogSizeEstimation::State lo, hi;
  lo.role = Role::A;
  lo.log_size2 = 3;
  lo.epoch = 4;
  lo.sum = 10;
  lo.time = 50;
  lo.protocol_done = true;
  lo.has_output = true;
  lo.output = 12;
  hi.role = Role::A;
  hi.log_size2 = 9;
  proto.interact(lo, hi, rng);
  EXPECT_EQ(lo.log_size2, 9u);
  EXPECT_EQ(lo.epoch, 0u);
  EXPECT_EQ(lo.sum, 0u);
  EXPECT_FALSE(lo.protocol_done);
  EXPECT_FALSE(lo.has_output);
}

TEST(LogSizeEstimation, PartitionRulesExactlyAsPaper) {
  LogSizeEstimation proto;
  Rng rng(31);
  // (X, X): sender -> A (draws logSize2), receiver -> S.
  LogSizeEstimation::State r, s;
  proto.interact(r, s, rng);
  EXPECT_EQ(s.role, Role::A);
  EXPECT_EQ(r.role, Role::S);
  EXPECT_GE(s.log_size2, 3u);  // geometric + 2
  // (rec X, sen A): receiver -> S.
  LogSizeEstimation::State x;
  proto.interact(x, s, rng);
  EXPECT_EQ(x.role, Role::S);
  // (rec non-X, sen X): sender stays X.
  LogSizeEstimation::State y;
  proto.interact(r, y, rng);
  EXPECT_EQ(y.role, Role::X);
}

TEST(LogSizeEstimation, SmallestPopulations) {
  // n = 2 and n = 3 must still converge (tiny logSize2, K >= 15 epochs).
  for (std::uint64_t n : {2ULL, 3ULL, 8ULL}) {
    Sim sim(LogSizeEstimation{}, n, 37 + n);
    EXPECT_GE(run_to_convergence(sim, 1e7), 0.0) << "n=" << n;
  }
}

TEST(LogSizeEstimation, EpochNeverExceedsTarget) {
  Sim sim(LogSizeEstimation{}, 200, 41);
  for (int i = 0; i < 300; ++i) {
    sim.advance_time(50.0);
    for (const auto& a : sim.agents()) {
      EXPECT_LE(a.epoch, sim.protocol().epoch_target(a));
    }
    if (converged(sim)) break;
  }
}

TEST(LogSizeEstimation, SumIsBoundedByEpochTimesMaxGr) {
  // Every S agent's sum is at most epoch * max-gr-so-far — each epoch adds
  // exactly one gr value.
  Sim sim(LogSizeEstimation{}, 400, 43);
  for_each_slice(sim, 200.0, 5e6, [](const Sim& s) {
    for (const auto& a : s.agents()) {
      if (a.role == Role::S && a.epoch > 0) {
        EXPECT_LE(a.sum, a.epoch * 64u) << "sum grossly out of range";
      }
    }
    return !converged(s);
  });
}

TEST(LogSizeEstimation, ParamsAreValidated) {
  LogSizeEstimation::Params bad;
  bad.time_multiplier = 0;
  EXPECT_THROW(LogSizeEstimation{bad}, std::invalid_argument);
  bad = {};
  bad.epoch_multiplier = 0;
  EXPECT_THROW(LogSizeEstimation{bad}, std::invalid_argument);
}

TEST(LogSizeEstimation, SmallerMultipliersStillConvergeFaster) {
  // Ablation sanity: reducing the epoch-length multiplier speeds convergence
  // (fewer interactions per epoch), at some accuracy risk.
  LogSizeEstimation::Params fast;
  fast.time_multiplier = 20;
  Sim a(LogSizeEstimation{fast}, 512, 47);
  Sim b(LogSizeEstimation{}, 512, 47);
  const double ta = a.run_until([](const Sim& s) { return converged(s); }, 25.0, 5e6);
  const double tb = b.run_until([](const Sim& s) { return converged(s); }, 25.0, 5e6);
  ASSERT_GE(ta, 0.0);
  ASSERT_GE(tb, 0.0);
  EXPECT_LT(ta, tb);
}

}  // namespace
}  // namespace pops
