// Compile-and-scale quickstart: take the paper's Log-Size-Estimation
// protocol, pin the bounded-field regime, compile it to a FiniteSpec, and
// run it on the batched count simulator — first to convergence at n = 10^6,
// then raw throughput at n = 10^10, a size where the per-agent simulator's
// state array alone would need ~500 GB.  Step 5 shows the lazy/JIT path:
// a cap-8 regime whose eager pair closure is infeasible runs anyway,
// compiling only the (receiver, sender) pairs the simulation touches.
// Step 6 fans trials out over every core against one shared JIT table —
// the sharded compile_pair makes concurrent stepping safe, and per-seed
// results are identical at any thread count.
//
//   $ ./compile_quickstart
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "harness/trials.hpp"
#include "sim/batched_count_simulation.hpp"

int main() {
  // 1. Bound the protocol: geometric draws capped at 2, scaled-down epoch
  //    constants (see compile/headline.hpp for the preset).
  const auto protocol = pops::log_size_tiny();

  // 2. Compile: BFS over the reachable joint state space, randomized
  //    branches become rated transitions.
  const auto compiled = pops::ProtocolCompiler<pops::Bounded<pops::LogSizeEstimation>>(
                            protocol, protocol.geometric_cap())
                            .compile();
  std::cout << "compiled: " << compiled.num_states() << " states, "
            << compiled.num_transitions() << " transitions ("
            << compiled.pairs_explored << " state pairs explored)\n";

  // 3. Convergence run at n = 10^6.  Observables evaluate typed states
  //    against the count vector.
  {
    const std::uint64_t n = 1000000;
    pops::BatchedCountSimulation sim(compiled.spec, /*seed=*/2024);
    pops::Rng seeder(7);
    compiled.seed_initial(sim, n, seeder);
    sim.advance_time(60.0);
    const auto counts = sim.counts();
    const auto workers = compiled.count_matching(
        counts,
        [](const pops::LogSizeEstimation::State& s) { return s.role == pops::Role::A; });
    const auto done = compiled.count_matching(
        counts, [](const pops::LogSizeEstimation::State& s) { return s.protocol_done; });
    std::cout << "n = 10^6 after parallel time " << sim.time() << ":\n"
              << "  workers (role A): " << workers << " (~n/2 by Lemma 3.2)\n"
              << "  finished agents:  " << done << " of " << n << "\n";
  }

  // 4. Throughput at n = 10^10: collision-free batches of expected Θ(√n)
  //    interactions per RNG epoch.
  {
    const std::uint64_t n = 10000000000ULL, work = 200000000ULL;
    pops::BatchedCountSimulation sim(compiled.spec, /*seed=*/4242);
    pops::Rng seeder(11);
    compiled.seed_initial(sim, n, seeder);
    const auto start = std::chrono::steady_clock::now();
    sim.steps(work);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::cout << "n = 10^10: " << work << " interactions in " << secs << " s ("
              << static_cast<double>(work) / secs << " interactions/s)\n";
  }

  // 5. Lazy/JIT compilation: the cap-8 preset's reachable space is ≳10^5
  //    states (~10^10 ordered pairs), far beyond the eager BFS closure.
  //    LazyCompiledSpec interns states on first contact and compiles a
  //    (receiver, sender) pair the first time the simulator dispatches it —
  //    the run below touches a small slice of the closure and pays only for
  //    that.  The same object also drives the agent-level oracle
  //    (sim/table_protocol.hpp), and the warm table is shared across trials
  //    via reset().
  {
    const auto protocol = pops::log_size_c8();
    pops::LazyCompiledSpec<pops::Bounded<pops::LogSizeEstimation>> lazy(
        protocol, protocol.geometric_cap());
    const std::uint64_t n = 100000000ULL, work = 50000000ULL;
    pops::BatchedCountSimulation sim(lazy, /*seed=*/99);
    pops::Rng seeder(17);
    lazy.seed_initial(sim, n, seeder);
    const auto start = std::chrono::steady_clock::now();
    sim.steps(work);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::cout << "lazy cap-8 preset at n = 10^8: " << work << " interactions in "
              << secs << " s; JIT interned " << lazy.num_states()
              << " states / compiled " << lazy.pairs_compiled()
              << " pairs (eager closure: infeasible)\n";

    // 6. Parallel trials on the shared warm table.  compile_pair is sharded
    //    behind per-receiver mutexes and dispatch lookups are lock-free, so
    //    any number of simulators may step one LazyCompiledSpec from
    //    different threads — run_trials_parallel fans the trials out over
    //    the process-wide executor (pops::Executor; pin the width with
    //    Executor::set_threads or POPS_THREADS for reproducible timings),
    //    giving each trial its own simulator + deterministic seed; the
    //    per-seed results are bit-identical whatever the width (state *ids*
    //    depend on interning order, but trajectories and observables don't).
    const std::uint64_t trials = 8, trial_n = 100000;
    const auto t0 = std::chrono::steady_clock::now();
    const auto workers_per_trial = pops::run_trials_parallel(
        trials, /*master_seed=*/2026, [&](std::uint64_t seed, std::uint64_t) {
          pops::BatchedCountSimulation sim(lazy, seed);
          pops::Rng seeder(seed ^ 0x5EED);
          lazy.seed_initial(sim, trial_n, seeder);
          sim.advance_time(50.0);
          return lazy.count_matching(sim.counts(), [](const auto& s) {
            return s.role == pops::Role::A;
          });
        });
    const double trial_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::cout << "parallel trials (" << trials << " trials, "
              << pops::effective_trial_threads(trials)
              << " effective threads, one shared JIT table): " << trial_secs
              << " s; workers =";
    for (const auto w : workers_per_trial) std::cout << ' ' << w;
    std::cout << " (~n/2 each by Lemma 3.2)\n";
  }
  return 0;
}
