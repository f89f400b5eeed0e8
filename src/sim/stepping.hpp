// Parallel-time stepping: the one place that turns parallel time
// (interactions / n, paper Section 2) into `steps` calls, for any simulator.
// The batched engine's per-seed output depends on where those calls cut its
// epochs, so every loop here slices time the same way: dt·n interactions.
#pragma once

#include <concepts>
#include <cstdint>

#include "sim/require.hpp"

namespace pops {

/// A simulator that parallel time can drive.
template <typename Sim>
concept SteppedSimulation = requires(Sim& sim, std::uint64_t k) {
  sim.steps(k);
  { sim.interactions() } -> std::convertible_to<std::uint64_t>;
  { sim.population_size() } -> std::convertible_to<std::uint64_t>;
};

/// Interactions in `dt` units of parallel time at population size `n`:
/// dt·n, truncated.  Throws for a negative, NaN or infinite dt and for a
/// product of 2⁶⁴ or more, whose conversion to uint64 would be undefined.
inline std::uint64_t interactions_in(double dt, std::uint64_t n) {
  POPS_REQUIRE(dt >= 0.0, "advance_time needs dt >= 0");
  const double k = dt * static_cast<double>(n);
  POPS_REQUIRE(k < 0x1p64, "advance_time needs a finite dt with dt * n < 2^64");
  return static_cast<std::uint64_t>(k);
}

/// Parallel time elapsed: interactions / n (paper, Section 2).
template <SteppedSimulation Sim>
double parallel_time(const Sim& sim) {
  return static_cast<double>(sim.interactions()) / static_cast<double>(sim.population_size());
}

/// Advance `sim` by `dt` units of parallel time.
template <SteppedSimulation Sim>
void advance_time(Sim& sim, double dt) {
  sim.steps(interactions_in(dt, sim.population_size()));
}

namespace detail {

/// Interactions in one `dt` slice, if `sim` is still before `until` (else 0).
/// Throws for a population under two agents, whose time is 0/0, and for
/// dt·n < 1, where no slice would ever reach `until`.
template <SteppedSimulation Sim>
std::uint64_t next_slice(const Sim& sim, double dt, double until) {
  const std::uint64_t n = sim.population_size();
  POPS_REQUIRE(n >= 2, "stepping needs a population of at least two agents");
  if (!(parallel_time(sim) < until)) return 0;  // a NaN bound stops too
  const std::uint64_t k = interactions_in(dt, n);
  POPS_REQUIRE(k >= 1, "a time slice needs dt * n >= 1");
  return k;
}

}  // namespace detail

/// While `sim` is before parallel time `until`, step one slice of `dt` and
/// call `fn(sim)`; stop early when `fn` returns false.
template <SteppedSimulation Sim, typename Fn>
void for_each_slice(Sim& sim, double dt, double until, Fn&& fn) {
  while (const std::uint64_t k = detail::next_slice(sim, dt, until)) {
    sim.steps(k);
    if (!fn(sim)) return;
  }
}

/// Run until `done(sim)` holds, checking at the start and after every
/// `check_dt` slice, giving up after `max_time`.  Returns the parallel time
/// at the first successful check, or −1 at the cap.  The first slice's
/// guards run before the first check, even when `done` already holds.
template <SteppedSimulation Sim, typename Pred>
double run_until(Sim& sim, Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
  POPS_REQUIRE(check_dt > 0.0, "run_until needs check_dt > 0");
  detail::next_slice(sim, check_dt, max_time);  // for its guards only
  bool hit = done(sim);
  if (!hit) for_each_slice(sim, check_dt, max_time, [&](Sim& s) { return !(hit = done(s)); });
  return hit ? parallel_time(sim) : -1.0;
}

}  // namespace pops
