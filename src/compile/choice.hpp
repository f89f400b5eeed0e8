// Exhaustive enumeration of a protocol's randomized branches.
//
// The compiler (compile/compiler.hpp) must turn an *algorithmic* transition —
// an `interact` body that consumes random draws — into the paper's transition
// relation with rate constants, a,b →ρ c,d (Section 4).  `ChoiceRng` makes
// that mechanical: it implements the `RandomSource` interface (sim/rng.hpp),
// but instead of sampling it walks every outcome.  Each draw is a *choice
// point* with finitely many options of known probability; one run of the
// protocol body follows one root-to-leaf path of the resulting choice tree,
// and `enumerate_choices` replays the body once per leaf, depth-first,
// exposing the path probability (the product of the chosen options'
// probabilities).  The probabilities over all leaves of a body sum to 1.
//
// Finiteness: coin() and bernoulli(p) branch 2 ways, below(n) branches n
// ways, and geometric_fair() — unbounded under `Rng` — is truncated at the
// configured cap: values 1..cap−1 keep their 2^−k mass and the cap absorbs
// the tail, receiving 2^−(cap−1).  That truncated law is exactly the law of
// min(geometric, cap), which `CapGeometric` (compile/bounded.hpp) applies on
// the simulation side, so enumeration and simulation draw from the same
// distributions.  uniform_double() has no finite branching and is rejected.
//
// Coin and geometric probabilities are dyadic rationals, represented exactly
// in double, so per-cell rate totals computed by the compiler come out as
// exactly 1.0 — which is what lets deterministic cells take the no-RNG fast
// path in sim/dispatch.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/require.hpp"
#include "sim/rng.hpp"

namespace pops {

class ChoiceRng {
 public:
  explicit ChoiceRng(std::uint32_t geometric_cap) : geometric_cap_(geometric_cap) {
    POPS_REQUIRE(geometric_cap >= 1, "geometric cap must be >= 1");
    POPS_REQUIRE(geometric_cap <= 50,
                 "geometric cap > 50 exceeds exact dyadic probability range");
  }

  // ----------------------------------------------- RandomSource interface --

  bool coin() {
    path_probability_ *= 0.5;
    return choose(2) == 0;
  }

  /// Truncated 1/2-geometric: support {1, ..., cap}, P(k) = 2^−k for k < cap
  /// and P(cap) = 2^−(cap−1) — the law of min(geometric_fair(), cap).
  std::uint32_t geometric_fair() {
    const auto k = static_cast<std::uint32_t>(choose(geometric_cap_)) + 1;
    const int exponent =
        k < geometric_cap_ ? -static_cast<int>(k) : 1 - static_cast<int>(geometric_cap_);
    path_probability_ *= std::ldexp(1.0, exponent);
    return k;
  }

  std::uint64_t below(std::uint64_t n) {
    POPS_REQUIRE(n >= 1, "below(n) needs n >= 1");
    POPS_REQUIRE(n <= 64, "below(n) branches n ways; not enumerable for large n");
    path_probability_ *= 1.0 / static_cast<double>(n);
    return choose(n);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    if (choose(2) == 0) {
      path_probability_ *= p;
      return true;
    }
    path_probability_ *= 1.0 - p;
    return false;
  }

  double uniform_double() {
    POPS_REQUIRE(false, "uniform_double() has no finite branch enumeration");
    return 0.0;
  }

  // ------------------------------------------------------ enumeration API --

  /// Probability of the path taken by the current run (product of choices).
  double path_probability() const { return path_probability_; }

  void begin_run() {
    cursor_ = 0;
    path_probability_ = 1.0;
  }

  /// Advance to the next leaf in depth-first order.  Returns false when the
  /// whole choice tree has been visited.
  bool next_path() {
    trail_.resize(cursor_);
    while (!trail_.empty()) {
      Choice& last = trail_.back();
      if (++last.index < last.options) return true;
      trail_.pop_back();
    }
    return false;
  }

 private:
  struct Choice {
    std::uint64_t index = 0;
    std::uint64_t options = 0;
  };

  /// Consume one choice point: replay the prescribed branch if this prefix
  /// was visited before, otherwise open a new choice point at branch 0.
  std::uint64_t choose(std::uint64_t options) {
    if (cursor_ == trail_.size()) {
      trail_.push_back(Choice{0, options});
    } else {
      POPS_REQUIRE(trail_[cursor_].options == options,
                   "protocol consumed randomness inconsistently across replays");
    }
    return trail_[cursor_++].index;
  }

  std::uint32_t geometric_cap_;
  std::vector<Choice> trail_;  ///< prescribed branch per choice point
  std::size_t cursor_ = 0;
  double path_probability_ = 1.0;
};
static_assert(RandomSource<ChoiceRng>);

/// Run `body(rng)` once per path through its choice tree.  The body must be
/// deterministic apart from its `rng` draws (same prefix of choices ⇒ same
/// next draw), which holds for any protocol transition function.
template <typename Body>
void enumerate_choices(std::uint32_t geometric_cap, Body&& body) {
  ChoiceRng rng(geometric_cap);
  do {
    rng.begin_run();
    body(rng);
  } while (rng.next_path());
}

}  // namespace pops
