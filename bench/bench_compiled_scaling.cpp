// COMPILED — the paper's headline constructions, compiled to FiniteSpecs and
// run on the batched Θ(√n)-per-epoch engine at n = 10^8 … 10^12.
//
// Per configuration the bench reports three things as JSON
// (./bench_compiled_scaling > BENCH_compiled.json):
//
//   * compile — state count, transition count, compile time: the measured
//     size of the bounded-field regime (the paper's Θ(log⁴ n) with log n
//     frozen at the cap).  Lazy configs report the JIT's interned states /
//     compiled pairs instead — the slice of the (eager-infeasible) closure
//     that runs actually touch;
//   * equivalence — a two-sample chi-square of compiled-batched vs direct
//     AgentSimulation at an overlapping n (trials fan out over threads via
//     run_trials_parallel; lazy batched trials share one JIT table);
//   * scaling — throughput at n = 10^8 … max-n under a fixed interaction
//     budget, plus protocol observables.  AgentSimulation needs Θ(n) memory
//     (≳ 4 GB at n = 10^8 for Log-Size-Estimation) and is simply absent
//     above that, which is the point of the compile-to-counts pipeline.
//
// The c8_lazy config exists only through `LazyCompiledSpec`: its pair space
// (~10¹⁰) is far beyond the eager BFS closure, so it additionally runs an
// n = 10^5 convergence trial first — both a JIT warm-up (interning the
// 10⁴-state working set) and a whole-protocol observable (the converged
// estimate under the saturating cap).
//
// POPS_BENCH_SCALE=0 stops at 10^9 and skips the multi-thousand-state
// presets; =2 (or --max-n=1000000000000) sweeps to 10^12.  --quick shrinks
// every block to a seconds-scale smoke run (tier-2 ctest; catches perf-path
// breakage without a full Release bench).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "core/executor.hpp"
#include "harness/bench_scale.hpp"
#include "harness/equivalence.hpp"
#include "sim/batched_count_simulation.hpp"

namespace {

bool quick = false;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool first_entry = true;

void begin_config(const char* name) {
  std::printf("%s    {\"config\": \"%s\",\n", first_entry ? "" : ",\n", name);
  first_entry = false;
}

std::uint64_t sweep_work() { return quick ? 20000000ULL : 200000000ULL; }
std::uint64_t eq_trials() { return quick ? 30 : pops::by_scale<std::uint64_t>(100, 200, 400); }

/// Throughput sweep shared by the eager and lazy configs.  Fixed interaction
/// budget per point: enough epochs to be representative (≥ ~100 even at
/// 10^12 where an epoch is ~1.25e6 interactions), small enough that the
/// whole sweep stays interactive.  One simulator serves every point
/// (reset() per n) — rebuilding the dispatch table (or re-warming the JIT)
/// per point would dwarf the smaller sweeps.
template <typename Seeder, typename Count>
void print_scaling(pops::BatchedCountSimulation& sim, std::uint64_t max_n,
                   Seeder&& seed, Count&& observe, const char* obs_name) {
  std::printf("     \"scaling\": [\n");
  bool first_point = true;
  for (std::uint64_t n = 100000000ULL; n <= max_n; n *= 10) {
    sim.reset(0xBEEF ^ n);
    seed(sim, n);
    const std::uint64_t work = sweep_work();
    const auto t0 = std::chrono::steady_clock::now();
    sim.steps(work);
    const double secs = seconds_since(t0);
    const std::uint64_t obs = observe(sim);
    std::printf("%s       {\"n\": %" PRIu64 ", \"interactions\": %" PRIu64
                ", \"seconds\": %.4f, \"interactions_per_sec\": %.4e, "
                "\"parallel_time\": %.6g, \"%s\": %" PRIu64,
                first_point ? "" : ",\n", n, work, secs,
                static_cast<double>(work) / secs, sim.time(), obs_name, obs);
    std::printf("}");
    first_point = false;
    std::fflush(stdout);
  }
  std::printf("\n     ]");  // caller closes the config object
}

/// One full report for an eagerly compiled protocol: compile stats,
/// chi-square equivalence at small n, throughput sweep to max_n.
template <typename P, typename Obs>
void report(const char* name, const P& proto, std::uint32_t cap, std::uint64_t max_n,
            std::uint64_t eq_interactions, std::uint64_t eq_seed, Obs&& observable,
            const char* obs_name) {
  begin_config(name);

  // Eager compile at full executor width (typed-state interner + parallel
  // closure — bit-identical to the single-threaded sweep at any width).
  const unsigned threads = pops::Executor::instance().threads();
  auto t0 = std::chrono::steady_clock::now();
  const auto compiled = pops::ProtocolCompiler<P>(proto, cap).compile(threads);
  const double compile_secs = seconds_since(t0);
  std::printf("     \"compile\": {\"states\": %u, \"transitions\": %zu, \"pairs\": %" PRIu64
              ", \"paths\": %" PRIu64 ", \"seconds\": %.3f, \"threads\": %u},\n",
              compiled.num_states(), compiled.num_transitions(), compiled.pairs_explored,
              compiled.paths_explored, compile_secs, threads);

  // Equivalence at an n both simulators handle, via the same harness the
  // certification suite uses (harness/equivalence.hpp).  "threads" is the
  // *effective* trial fan-out (executor width capped by the trial count),
  // not the requested one — cross-PR perf diffs compare like with like.
  {
    const std::uint64_t n = 1000, trials = eq_trials();
    const auto chi = pops::compiled_agent_equivalence(proto, compiled, n, eq_interactions,
                                                      trials, eq_seed, observable);
    std::printf("     \"equivalence\": {\"n\": %" PRIu64 ", \"interactions\": %" PRIu64
                ", \"trials\": %" PRIu64
                ", \"observable\": \"%s\", \"chi2\": %.3f, \"df\": %" PRIu64
                ", \"accept\": %s, \"threads\": %u},\n",
                n, eq_interactions, trials, obs_name, chi.statistic, chi.df,
                chi.accept() ? "true" : "false", pops::effective_trial_threads(trials));
  }

  pops::BatchedCountSimulation sim(compiled.spec, 0);
  print_scaling(
      sim, max_n,
      [&](pops::BatchedCountSimulation& s, std::uint64_t n) {
        pops::Rng seeder(0x5EED ^ n);
        compiled.seed_initial(s, n, seeder);
      },
      [&](const pops::BatchedCountSimulation& s) {
        return compiled.count_matching(s.counts(), observable);
      },
      obs_name);
  std::printf("}");
}

/// Lazy-config report: JIT warm-up convergence run, equivalence, sweep, and
/// the interned-state accounting that replaces the eager compile record.
template <typename P, typename Obs>
void report_lazy(const char* name, const P& proto, std::uint32_t cap, std::uint64_t max_n,
                 std::uint64_t eq_interactions, std::uint64_t eq_seed, Obs&& observable,
                 const char* obs_name) {
  begin_config(name);

  pops::LazyCompiledSpec<P> lazy(proto, cap);
  pops::BatchedCountSimulation sim(lazy, 0);

  // Convergence trial at n = 10^5: runs the whole (time × epoch) cycle, so
  // it interns the protocol's working set (the sweep's giant-n points sit in
  // the partition transient and touch far fewer states).  Reported as its
  // own record; skipped under --quick.
  if (!quick) {
    const std::uint64_t n = 100000;
    sim.reset(0xC0FFEE);
    pops::Rng seeder(0x5EED);
    lazy.seed_initial(sim, n, seeder);
    const auto t0 = std::chrono::steady_clock::now();
    const double t_conv = sim.run_until(
        [&](const pops::BatchedCountSimulation& s) {
          return lazy.count_matching(s.counts(), [](const auto& st) {
                   return !st.protocol_done;
                 }) == 0;
        },
        25.0, 5000.0);
    std::printf("     \"convergence\": {\"n\": %" PRIu64
                ", \"parallel_time\": %.1f, \"seconds\": %.2f, \"%s\": %" PRIu64 "},\n",
                n, t_conv, seconds_since(t0), obs_name,
                lazy.count_matching(sim.counts(), observable));
  }

  {
    // Lazy equivalence trials ride run_trials_parallel on the shared JIT
    // table.  Three batched passes: an untimed warm-up (compiles every pair
    // the trial set touches, so the timed passes compare scheduling rather
    // than JIT cost), a timed serial pass and a timed parallel pass — the
    // sharded JIT's thread-count invariance means the two passes must agree
    // value for value, which is asserted here, and the ratio is the
    // measured trial-fan-out speedup on this machine.
    const std::uint64_t n = 1000, trials = eq_trials();
    const unsigned threads = pops::Executor::instance().threads();
    const auto agent_hist = pops::agent_observable_histogram(proto, n, eq_interactions,
                                                             trials, eq_seed, observable);
    (void)pops::lazy_trial_values(lazy, n, eq_interactions, trials, eq_seed, observable,
                                  threads);  // warm-up
    auto t0 = std::chrono::steady_clock::now();
    const auto serial = pops::lazy_trial_values(lazy, n, eq_interactions, trials, eq_seed,
                                                observable, 1);
    const double serial_secs = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    const auto parallel = pops::lazy_trial_values(lazy, n, eq_interactions, trials,
                                                  eq_seed, observable, threads);
    const double parallel_secs = seconds_since(t0);
    if (serial != parallel) {
      std::fprintf(stderr, "FATAL: lazy trial values not thread-count invariant\n");
      std::exit(1);
    }
    std::map<std::uint64_t, std::uint64_t> count_hist;
    for (const auto v : parallel) ++count_hist[v];
    const auto chi = pops::two_sample_chi_square(agent_hist, count_hist);
    std::printf("     \"equivalence\": {\"n\": %" PRIu64 ", \"interactions\": %" PRIu64
                ", \"trials\": %" PRIu64
                ", \"observable\": \"%s\", \"chi2\": %.3f, \"df\": %" PRIu64
                ", \"accept\": %s, \"threads\": %u, \"batched_seconds_serial\": %.4f, "
                "\"batched_seconds_parallel\": %.4f, \"parallel_speedup\": %.2f},\n",
                n, eq_interactions, trials, obs_name, chi.statistic, chi.df,
                chi.accept() ? "true" : "false",
                pops::effective_trial_threads(trials, threads), serial_secs, parallel_secs,
                parallel_secs > 0.0 ? serial_secs / parallel_secs : 1.0);
  }

  print_scaling(
      sim, max_n,
      [&](pops::BatchedCountSimulation& s, std::uint64_t n) {
        pops::Rng seeder(0x5EED ^ n);
        lazy.seed_initial(s, n, seeder);
      },
      [&](const pops::BatchedCountSimulation& s) {
        return lazy.count_matching(s.counts(), observable);
      },
      obs_name);
  // The JIT accounting comes last so it reflects everything the config ran.
  // null_pairs is the compact-null share of the table (a row-slot code, no
  // Cell record — the dominant kind once the protocol saturates).
  std::printf(",\n     \"lazy\": {\"states_interned\": %u, \"pairs_compiled\": %zu, "
              "\"null_pairs\": %zu, \"paths\": %" PRIu64 "}}",
              lazy.num_states(), lazy.pairs_compiled(), lazy.null_pairs_compiled(),
              lazy.paths_explored());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t max_n =
      pops::by_scale<std::uint64_t>(1000000000ULL, 100000000000ULL, 1000000000000ULL);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      max_n = 100000000ULL;
    }
  }

  std::printf("{\n  \"bench\": \"bench_compiled_scaling\",\n"
              "  \"hardware_concurrency\": %u,\n  \"executor_threads\": %u,\n"
              "  \"configs\": [\n",
              std::max(1u, std::thread::hardware_concurrency()),
              pops::Executor::instance().threads());

  {
    const auto proto = pops::log_size_tiny();
    // Observable: worker count — ~Binomial(n, 1/2) spread across trials once
    // Partition-Into-A/S completes (Lemma 3.2), so the chi-square has real
    // degrees of freedom at any horizon (completion-style observables are
    // degenerate at n = 1000 until far later; the test suite covers those at
    // n = 128 where their horizons are calibrated).
    report("log_size_estimation/tiny", proto, proto.geometric_cap(), max_n,
           /*eq_interactions=*/25000, /*eq_seed=*/0x9E10,
           [](const pops::LogSizeEstimation::State& s) { return s.role == pops::Role::A; },
           "workers");
  }
  if (pops::bench_scale() >= 1 && !quick) {
    const auto proto = pops::log_size_small();
    report("log_size_estimation/small", proto, proto.geometric_cap(), max_n,
           /*eq_interactions=*/30000, /*eq_seed=*/0x9E11,
           [](const pops::LogSizeEstimation::State& s) { return s.role == pops::Role::A; },
           "workers");
  }
  {
    // JIT-only: the eager closure of this preset is infeasible (see
    // compile/headline.hpp); runs in every mode since the lazy path is the
    // thing --quick must smoke-test.
    const auto proto = pops::log_size_c8();
    report_lazy("log_size_estimation/c8_lazy", proto, proto.geometric_cap(),
                std::min<std::uint64_t>(max_n, 10000000000ULL),
                /*eq_interactions=*/30000, /*eq_seed=*/0x9E14,
                [](const pops::LogSizeEstimation::State& s) { return s.role == pops::Role::A; },
                "workers");
  }
  {
    const auto proto = pops::bounded_majority(0.55);
    report("uniform_majority/bias_0.55", proto, proto.geometric_cap(), max_n,
           /*eq_interactions=*/1000, /*eq_seed=*/0x9E12,
           [](const pops::Composed<pops::VotedMajorityStage>::State& s) {
             return s.down.output > 0;
           },
           "output_positive");
  }
  {
    const auto proto = pops::bounded_leader_election(4);
    report("uniform_leader_election/bits_4", proto, proto.geometric_cap(), max_n,
           /*eq_interactions=*/1200, /*eq_seed=*/0x9E13,
           [](const pops::UniformLeaderElection::State& s) { return s.down.contender; },
           "contenders");
  }

  std::printf("\n  ]\n}\n");
  return 0;
}
