// Example: electing a leader without knowing the population size.
//
// Run:  ./build/examples/uniform_leader_election [n] [seed]
//
// The fast leader-election protocols in the literature hard-code log n; this
// example shows the paper's composition recipe (§1.1) making the classic
// random-bit tournament *uniform*: a weak size estimate spreads by epidemic,
// a leaderless clock carves time into Θ(log n) stages, contenders append one
// random bit per stage, and the maximum bitstring's owner is the unique
// leader w.h.p.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "core/uniform_leader_election.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/stepping.hpp"

int main(int argc, char** argv) {
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  auto proto = pops::make_uniform_leader_election();
  pops::AgentSimulation<pops::UniformLeaderElection> sim(proto, n, seed);

  std::cout << "Uniform leader election among " << n << " anonymous agents\n"
            << "(no agent knows n; stages are timed by the paper's leaderless clock).\n\n";

  double last_report = 0.0;
  pops::for_each_slice(sim, 50.0, 1e7, [&](const auto& s) {
    if (s.time() - last_report >= 500.0) {
      last_report = s.time();
      std::cout << "t=" << static_cast<std::uint64_t>(s.time())
                << "  stage=" << s.agent(0).clock.stage
                << "  contenders=" << pops::count_contenders(s) << "\n";
    }
    return !pops::clock_finished(s);
  });
  sim.advance_time(100.0);  // final propagation sweep

  const auto contenders = pops::count_contenders(sim);
  std::cout << "\nfinal stage " << sim.agent(0).clock.stage << " reached at parallel time "
            << static_cast<std::uint64_t>(sim.time()) << "\n"
            << "remaining contenders: " << contenders
            << (contenders == 1 ? "  -- unique leader elected\n"
                                : "  -- tie (rerun with another seed; w.h.p. unique)\n");
  return contenders == 1 ? 0 : 1;
}
