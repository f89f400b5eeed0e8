// Agent-level population-protocol simulator.
//
// The model (paper, Section 2): n agents; repeatedly an ordered pair of
// distinct agents (receiver, sender) is chosen uniformly at random and both
// run the transition algorithm on the pair of states they were in before the
// interaction.  Parallel time = interactions / n.
//
// `AgentSimulation<P>` works for any protocol satisfying the `AgentProtocol`
// concept below.  It is the right tool for protocols whose state space grows
// with n (such as Log-Size-Estimation, whose fields range over Θ(polylog n)
// values); for constant-state protocols prefer `BatchedCountSimulation`.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "sim/stepping.hpp"

namespace pops {

/// A population protocol at the agent level.
///
/// * `State` is a value type holding one agent's memory (the working tape of
///   the paper's TM formalization).
/// * `initial(rng)` returns the state every agent starts in.  Leaderless
///   protocols (paper, Section 3) must not consume randomness that
///   distinguishes agents here; protocols with an initial leader use
///   `AgentSimulation::set_state` to plant the leader.
/// * `interact(receiver, sender, rng)` applies one transition in place.  The
///   paper's randomized model (transition relation delta ⊆ Λ^4) is realized by
///   letting the transition consume random bits.
template <typename P>
concept AgentProtocol =
    std::copyable<typename P::State> && requires(const P proto, typename P::State& receiver,
                                                 typename P::State& sender, Rng& rng) {
      { proto.initial(rng) } -> std::same_as<typename P::State>;
      { proto.interact(receiver, sender, rng) };
    };

template <AgentProtocol P>
class AgentSimulation {
 public:
  using State = typename P::State;

  AgentSimulation(P protocol, std::uint64_t n, std::uint64_t seed)
      : protocol_(std::move(protocol)), rng_(seed) {
    POPS_REQUIRE(n >= 2, "a population needs at least two agents to interact");
    agents_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) agents_.push_back(protocol_.initial(rng_));
  }

  std::uint64_t population_size() const { return agents_.size(); }
  std::uint64_t interactions() const { return interactions_; }

  /// Parallel time elapsed: interactions / n (paper, Section 2).
  double time() const { return parallel_time(*this); }

  const std::vector<State>& agents() const { return agents_; }
  const State& agent(std::uint64_t i) const { return agents_.at(i); }

  /// Overwrite one agent's state before the run starts (e.g. plant a leader).
  void set_state(std::uint64_t i, const State& s) { agents_.at(i) = s; }

  const P& protocol() const { return protocol_; }
  Rng& rng() { return rng_; }

  /// Execute one interaction between a uniformly random ordered pair.
  void step() { steps(1); }

  /// Execute `k` interactions.
  void steps(std::uint64_t k) {
    // Hoist the hot loop: direct indexing, no bounds re-checking.
    const std::uint64_t n = agents_.size();
    State* const a = agents_.data();
    for (std::uint64_t i = 0; i < k; ++i) {
      const auto [r, s] = rng_.ordered_pair(n);
      protocol_.interact(a[r], a[s], rng_);
    }
    interactions_ += k;
  }

  /// Parallel-time stepping (sim/stepping.hpp).
  void advance_time(double dt) { pops::advance_time(*this, dt); }
  template <typename Pred>
  double run_until(Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
    return pops::run_until(*this, std::forward<Pred>(done), check_dt, max_time);
  }

 private:
  P protocol_;
  std::vector<State> agents_;
  Rng rng_;
  std::uint64_t interactions_ = 0;
};

}  // namespace pops
