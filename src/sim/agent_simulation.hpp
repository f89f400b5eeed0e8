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
#include <vector>

#include "sim/require.hpp"
#include "sim/rng.hpp"

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
  double time() const {
    return static_cast<double>(interactions_) / static_cast<double>(agents_.size());
  }

  const std::vector<State>& agents() const { return agents_; }
  const State& agent(std::uint64_t i) const { return agents_.at(i); }

  /// Overwrite one agent's state before the run starts (e.g. plant a leader).
  void set_state(std::uint64_t i, const State& s) { agents_.at(i) = s; }

  const P& protocol() const { return protocol_; }
  Rng& rng() { return rng_; }

  /// Execute one interaction between a uniformly random ordered pair.
  void step() {
    const auto [r, s] = rng_.ordered_pair(agents_.size());
    protocol_.interact(agents_[r], agents_[s], rng_);
    ++interactions_;
  }

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

  /// Advance simulated parallel time by `dt` units (n * dt interactions).
  void advance_time(double dt) {
    steps(interactions_in(dt, agents_.size()));
  }

  /// Run until `done(sim)` holds, checking every `check_dt` units of parallel
  /// time, giving up after `max_time`.  Returns the parallel time at the first
  /// successful check, or a negative value if the cap was hit.
  template <typename Pred>
  double run_until(Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
    POPS_REQUIRE(check_dt > 0.0, "run_until needs check_dt > 0");
    while (time() < max_time) {
      // A check interval under one interaction would never advance time().
      const std::uint64_t k = interactions_in(check_dt, agents_.size());
      POPS_REQUIRE(k >= 1, "run_until needs check_dt * n >= 1");
      if (done(*this)) return time();
      steps(k);
    }
    return done(*this) ? time() : -1.0;
  }

 private:
  P protocol_;
  std::vector<State> agents_;
  Rng rng_;
  std::uint64_t interactions_ = 0;
};

}  // namespace pops
