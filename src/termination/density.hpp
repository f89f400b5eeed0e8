// α-dense configurations and the empirical density lemma (paper Section 4,
// Lemma 4.2).
//
// A configuration ~c is α-dense when every state present occupies at least αn
// agents.  Lemma 4.2: from any sufficiently large α-dense configuration,
// every state in Λ^m_ρ reaches count >= δn within parallel time 1, w.p.
// >= 1 − 2^{−εn}.  `measure_density_lemma` runs that experiment on any
// count-API simulator and reports the minimum count each closure state
// attained by the deadline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/finite_spec.hpp"
#include "sim/stepping.hpp"
#include "termination/producibility.hpp"

namespace pops {

/// Is the configuration (state id → count) α-dense for population n?
inline bool is_alpha_dense(const std::vector<std::uint64_t>& counts, double alpha) {
  std::uint64_t n = 0;
  for (auto c : counts) n += c;
  if (n == 0) return false;
  const double threshold = alpha * static_cast<double>(n);
  for (auto c : counts) {
    if (c != 0 && static_cast<double>(c) < threshold) return false;
  }
  return true;
}

struct DensityLemmaResult {
  /// For each state in the closure: its count at the measurement deadline.
  std::map<std::uint32_t, std::uint64_t> final_counts;
  /// min over closure states of final count / n (the empirical δ).
  double min_fraction = 0.0;
  /// Parallel time at which every closure state first held count >= 1.
  double first_all_present_time = -1.0;
};

/// Run from the configuration currently loaded in `sim` for `deadline`
/// parallel time and measure counts of all states in `closure`, checking
/// for all of them at the start and every `check_dt`.  Throws for a
/// population under two agents and if check_dt·n < 1, where a check would
/// advance no interaction.
template <typename Sim>
DensityLemmaResult measure_density_lemma(Sim& sim, const std::set<std::uint32_t>& closure,
                                         double deadline = 1.0, double check_dt = 0.01) {
  DensityLemmaResult result;
  const auto n = static_cast<double>(sim.population_size());
  const auto check_present = [&](const Sim& s) {
    const auto present = [&](std::uint32_t state) { return s.count(state) != 0; };
    if (result.first_all_present_time < 0.0 &&
        std::all_of(closure.begin(), closure.end(), present)) {
      result.first_all_present_time = s.time();
    }
    return true;
  };
  check_present(sim);
  for_each_slice(sim, check_dt, deadline, check_present);
  double min_fraction = 1.0;
  for (auto s : closure) {
    const std::uint64_t c = sim.count(s);
    result.final_counts[s] = c;
    min_fraction = std::min(min_fraction, static_cast<double>(c) / n);
  }
  result.min_fraction = min_fraction;
  return result;
}

}  // namespace pops
