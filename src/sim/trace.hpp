// Time-series tracing and CSV export for simulations.
//
// Experiments often need the trajectory, not just the endpoint (e.g. the
// count of infected agents over time, or the spread of epochs across the
// population).  `Trace` samples named observables on a parallel-time grid
// and renders CSV that plots directly in any tool.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/require.hpp"
#include "sim/stepping.hpp"

namespace pops {

template <typename Sim>
class Trace {
 public:
  using Observable = std::function<double(const Sim&)>;

  /// Register a named observable; returns *this for chaining.
  Trace& observe(std::string name, Observable fn) {
    POPS_REQUIRE(rows_.empty(), "cannot add observables after sampling started");
    names_.push_back(std::move(name));
    observables_.push_back(std::move(fn));
    return *this;
  }

  /// Sample all observables at the simulation's current time.
  void sample(const Sim& sim) {
    std::vector<double> row;
    row.reserve(observables_.size() + 1);
    row.push_back(sim.time());
    for (const auto& fn : observables_) row.push_back(fn(sim));
    rows_.push_back(std::move(row));
  }

  /// Drive the simulation to `until` parallel time, sampling every `dt`.
  /// Throws if dt·n < 1, where each sample would advance no interaction,
  /// and for a population under two agents, before taking any sample.
  void run(Sim& sim, double until, double dt) {
    POPS_REQUIRE(dt > 0.0, "sampling interval must be positive");
    detail::next_slice(sim, dt, until);  // for its guards only
    sample(sim);
    for_each_slice(sim, dt, until, [this](const Sim& s) {
      sample(s);
      return true;
    });
  }

  std::size_t samples() const { return rows_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  /// Value of observable `name` at sample index `i`.
  double value(std::size_t i, const std::string& name) const {
    for (std::size_t c = 0; c < names_.size(); ++c) {
      if (names_[c] == name) return rows_.at(i).at(c + 1);
    }
    POPS_REQUIRE(false, "unknown observable: " + name);
    return 0.0;  // unreachable
  }

  double time_at(std::size_t i) const { return rows_.at(i).at(0); }

  /// CSV with a header row: time,<name1>,<name2>,...
  void write_csv(std::ostream& os) const {
    os << "time";
    for (const auto& n : names_) os << ',' << n;
    os << '\n';
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) os << ',';
        os << row[c];
      }
      os << '\n';
    }
  }

 private:
  std::vector<std::string> names_;
  std::vector<Observable> observables_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace pops
