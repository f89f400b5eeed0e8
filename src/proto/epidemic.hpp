// Epidemic (one-way gossip) protocols.
//
// The transition i,j → j,j for i <= j propagates a maximum through the
// population by "infection" in Θ(log n) parallel time (paper Lemma A.1,
// Corollaries 3.4/3.5).  Epidemics are the workhorse primitive of the main
// protocol: logSize2, gr, epoch, sum and the final output all spread this way.
//
// Three forms are provided:
//  * `epidemic_spec()`            — 2-state S/I FiniteSpec for the count engine
//  * `subpopulation_epidemic_spec()` — S/I plus inert bystanders B
//                                    (Corollary 3.4's epidemic "among n/c")
//  * `ValueEpidemic`              — agent protocol propagating max of values
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/agent_simulation.hpp"
#include "sim/finite_spec.hpp"

namespace pops {

/// States "S" (susceptible) and "I" (infected); either orientation of an
/// (S, I) encounter infects the susceptible agent.
inline FiniteSpec epidemic_spec() {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  return spec;
}

/// Epidemic among a subpopulation: bystanders "B" never change and never
/// infect, exactly the setting of Corollary 3.4 (epidemic transitions executed
/// only within the active subset).
inline FiniteSpec subpopulation_epidemic_spec() {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  spec.state("B");
  return spec;
}

/// Max-value epidemic at agent level: each agent holds a value; both parties
/// adopt the larger.  With distinct initial values this is the "propagate the
/// maximum" primitive used throughout Section 3.
struct ValueEpidemic {
  struct State {
    std::uint64_t value = 0;
  };

  State initial(Rng&) const { return State{}; }

  void interact(State& receiver, State& sender, Rng&) const {
    const std::uint64_t m = std::max(receiver.value, sender.value);
    receiver.value = m;
    sender.value = m;
  }
};
static_assert(AgentProtocol<ValueEpidemic>);

}  // namespace pops
