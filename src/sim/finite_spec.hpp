// Explicit description of a finite-state population protocol.
//
// Section 4 of the paper works with a transition *relation* delta ⊆ Λ^4 with
// rate constants: a,b →ρ c,d means that when (receiver a, sender b) interact,
// with probability ρ they become (c, d).  `FiniteSpec` is that object made
// concrete: named states plus a list of randomized transitions.  It backs
//   * `BatchedCountSimulation` (exact simulation of the configuration vector), and
//   * `producibility` (the Λ^m_ρ closure used by Theorem 4.1 / Lemma 4.2).
//
// It is plain data.  A state carries its label from the moment it is
// registered — by name (`state`, `add_state`) or as `#<id>`
// (`add_unnamed_state`) — and the name index grows with it, so a
// duplicate label throws where it is registered and every const accessor
// is a pure read.
//
// Its rules are written here once and enforced where a spec is already
// walked, not by an extra pass:
//   * per transition — known state ids and a rate in (0, 1]
//     (`require_transition`): `add` checks each transition as it comes in,
//     and the eager `DispatchTable(spec)` build checks them all in its
//     counting pass;
//   * per input pair — rates summed in spec order at most 1 up to 1e-12
//     rounding, the rest null mass (`require_pair_rate`): the compiler
//     checks each pair as it emits it (compile/compiler.hpp), and the eager
//     table build checks each cell where it groups it (sim/dispatch.hpp).
// `validate()` checks both over a whole spec, for hand-built specs that
// never reach a table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/require.hpp"

namespace pops {

/// One randomized transition a,b →ρ c,d (receiver a, sender b).
struct Transition {
  std::uint32_t in_receiver = 0;
  std::uint32_t in_sender = 0;
  std::uint32_t out_receiver = 0;
  std::uint32_t out_sender = 0;
  double rate = 1.0;  ///< probability of firing when (a, b) interact
};

class FiniteSpec {
 public:
  /// Register (or look up) a state by name; returns its dense id.
  std::uint32_t state(const std::string& name) {
    const auto [it, inserted] = ids_.try_emplace(name, num_states());
    if (inserted) names_.push_back(name);
    return it->second;
  }

  /// Register a new state under `name`, which no other state may carry;
  /// returns its dense id.  The compiler registers each interned state's
  /// `state_label` this way, so a label shared by two states throws here.
  std::uint32_t add_state(std::string name) {
    const auto id = num_states();
    const bool fresh = ids_.try_emplace(name, id).second;
    POPS_REQUIRE(fresh, "duplicate state label: " + name);
    names_.push_back(std::move(name));
    return id;
  }

  /// Register a state for a spec built by id, labelled `#<id>`.
  std::uint32_t add_unnamed_state() { return add_state("#" + std::to_string(num_states())); }

  bool has_state(const std::string& name) const { return ids_.count(name) != 0; }

  std::uint32_t id(const std::string& name) const {
    auto it = ids_.find(name);
    POPS_REQUIRE(it != ids_.end(), "unknown state: " + name);
    return it->second;
  }

  const std::string& name(std::uint32_t id) const { return names_.at(id); }

  std::uint32_t num_states() const { return static_cast<std::uint32_t>(names_.size()); }

  /// Add transition a,b →rate c,d.  The total rate of transitions sharing the
  /// same input pair must not exceed 1; any remainder is a null transition.
  void add(const std::string& a, const std::string& b, const std::string& c,
           const std::string& d, double rate = 1.0) {
    POPS_REQUIRE(rate > 0.0 && rate <= 1.0, "transition rate must lie in (0, 1]");
    transitions_.push_back(Transition{state(a), state(b), state(c), state(d), rate});
  }

  /// Id-based overload for machine-generated specs (compile/compiler.hpp):
  /// no name lookups on the emission path.  All ids must already exist.
  void add(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
           double rate = 1.0) {
    const Transition t{a, b, c, d, rate};
    require_transition(t);
    transitions_.push_back(t);
  }

  /// Symmetric convenience: adds both a,b → c,d and b,a → d,c.
  void add_symmetric(const std::string& a, const std::string& b, const std::string& c,
                     const std::string& d, double rate = 1.0) {
    add(a, b, c, d, rate);
    if (a != b) add(b, a, d, c, rate);
  }

  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Total rate over all transitions with input pair (a, b); must be <= 1.
  double total_rate(std::uint32_t a, std::uint32_t b) const {
    double total = 0.0;
    for (const auto& t : transitions_) {
      if (t.in_receiver == a && t.in_sender == b) total += t.rate;
    }
    return total;
  }

  /// The per-transition rule: every state id known, rate in (0, 1].
  void require_transition(const Transition& t) const {
    POPS_REQUIRE(t.rate > 0.0 && t.rate <= 1.0, "transition rate must lie in (0, 1]");
    const auto n = num_states();
    POPS_REQUIRE(t.in_receiver < n && t.in_sender < n && t.out_receiver < n &&
                     t.out_sender < n,
                 "transition uses unknown state id");
  }

  /// The per-pair rule on `total`, the rates of pair (a, b)'s transitions
  /// summed in spec order: at most 1 up to rounding.  Split from the throw
  /// so a parallel check can test totals without reading names.
  static bool pair_rate_ok(double total) { return total <= 1.0 + 1e-12; }
  void require_pair_rate(std::uint32_t a, std::uint32_t b, double total) const {
    POPS_REQUIRE(pair_rate_ok(total),
                 "transition rates for pair (" + name(a) + ", " + name(b) + ") exceed 1");
  }

  /// Check both rules over the whole spec.  Hash-keyed, so it runs in
  /// linear time, but compiled specs never need it: the compiler and the
  /// eager table build check the same rules as they go.
  void validate() const {
    std::unordered_map<std::uint64_t, double> totals;
    totals.reserve(transitions_.size());
    for (const auto& t : transitions_) {
      require_transition(t);
      totals[(static_cast<std::uint64_t>(t.in_receiver) << 32) | t.in_sender] += t.rate;
    }
    for (const auto& [key, total] : totals) {
      require_pair_rate(static_cast<std::uint32_t>(key >> 32), static_cast<std::uint32_t>(key),
                        total);
    }
  }

 private:
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Transition> transitions_;
};

}  // namespace pops
