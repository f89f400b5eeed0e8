// Log-Size-Estimation — the paper's primary contribution (Section 3.2,
// Protocols 1–9; Theorem 3.1).
//
// A uniform leaderless protocol computing log2(n) ± O(1) in O(log² n) time
// and O(log⁴ n) states, w.h.p.  Structure:
//
//  1. Partition-Into-A/S splits the population into workers (A) and storage
//     (S) — space multiplexing (Lemma 3.2 keeps |A| within O(sqrt(n ln n)) of
//     n/2, costing only a constant additive error).
//  2. Each A draws logSize2 = (1/2-geometric) + 2; the maximum propagates by
//     epidemic.  By Lemma 3.8, max logSize2 ∈ [log n − log ln n, 2 log n + 1]
//     w.h.p. — a weak (constant-factor) estimate of log n.  Whenever an agent
//     adopts a larger logSize2 it Restarts all downstream state.
//  3. Leaderless phase clock: every A counts its own interactions (`time`);
//     an epoch ends when time >= 95·logSize2 (Lemma 3.6/Corollary 3.7: no
//     agent crosses this before the epoch's epidemic has completed, w.h.p.).
//  4. In each of K = 5·logSize2 epochs the A agents draw a fresh geometric
//     `gr` and propagate the epoch maximum among themselves; at the end of
//     the epoch the first finished A deposits the max into an S agent's
//     running `sum` (Update-Sum), and epochs/sums propagate among S agents.
//  5. After K epochs, output = sum/epoch + 1.  Corollary D.10 (Chernoff for
//     sums of maxima of geometrics, via sub-exponential moment bounds) gives
//     |output − log n| <= 5.7 w.p. >= 1 − 9/n (Lemma 3.12).
//
// Pseudocode disambiguations are listed in DESIGN.md §4; the constants 95, 5
// and +2 are parameters (`Params`) so the ablation benches can sweep them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "compile/intern.hpp"
#include "proto/partition.hpp"
#include "sim/agent_simulation.hpp"
#include "sim/metrics.hpp"
#include "sim/require.hpp"

namespace pops {

class LogSizeEstimation {
 public:
  /// The protocol's design constants.  Defaults are the paper's values.
  struct Params {
    std::uint32_t time_multiplier = 95;   ///< epoch length: time >= 95·logSize2
    std::uint32_t epoch_multiplier = 5;   ///< number of epochs K = 5·logSize2
    std::uint32_t logsize_offset = 2;     ///< logSize2 = geometric + 2 (Lemma 3.8)
  };

  struct State {
    Role role = Role::X;
    bool protocol_done = false;
    bool updated_sum = false;
    bool has_output = false;
    std::uint32_t time = 0;
    std::uint32_t epoch = 0;
    std::uint32_t log_size2 = 1;
    std::uint32_t gr = 1;
    std::uint32_t sum = 0;
    std::int32_t output = 0;
  };

  LogSizeEstimation() = default;
  explicit LogSizeEstimation(Params params) : params_(params) {
    POPS_REQUIRE(params.time_multiplier >= 1, "time multiplier must be >= 1");
    POPS_REQUIRE(params.epoch_multiplier >= 1, "epoch multiplier must be >= 1");
  }

  const Params& params() const { return params_; }

  template <RandomSource R>
  State initial(R&) const {
    return State{};
  }

  /// One interaction, following Protocol 1's order: Partition; clock ticks +
  /// timer checks; Propagate-Max-Clock-Value; Propagate-Incremented-Epoch;
  /// Update-Sum (A–S pairs); Propagate-Max-G.R.V. (A–A pairs); output refresh.
  template <RandomSource R>
  void interact(State& receiver, State& sender, R& rng) const {
    partition_into_roles(receiver, sender, rng);

    if (receiver.role == Role::A) {
      ++receiver.time;
      check_timer(receiver, rng);
    }
    if (sender.role == Role::A) {
      ++sender.time;
      check_timer(sender, rng);
    }

    propagate_max_clock_value(receiver, sender, rng);
    propagate_incremented_epoch(receiver, sender, rng);

    if (receiver.role == Role::A && sender.role == Role::S) {
      update_sum(receiver, sender);
    } else if (receiver.role == Role::S && sender.role == Role::A) {
      update_sum(sender, receiver);
    }

    if (receiver.role == Role::A && sender.role == Role::A &&
        receiver.epoch == sender.epoch) {
      const std::uint32_t m = std::max(receiver.gr, sender.gr);
      receiver.gr = m;
      sender.gr = m;
    }

    finalize_storage(receiver);
    finalize_storage(sender);
    share_output(receiver, sender);
  }

  /// Epoch-length threshold for this agent: 95 · logSize2.
  std::uint32_t time_threshold(const State& s) const {
    return params_.time_multiplier * s.log_size2;
  }

  /// Total number of epochs for this agent: K = 5 · logSize2.
  std::uint32_t epoch_target(const State& s) const {
    return params_.epoch_multiplier * s.log_size2;
  }

  /// Canonical label, injective on saturated states (compile/compiler.hpp).
  std::string state_label(const State& s) const {
    char buf[96];
    const char role = s.role == Role::X ? 'X' : (s.role == Role::A ? 'A' : 'S');
    std::snprintf(buf, sizeof(buf), "%c|l%u|t%u|e%u|g%u|s%u|%c%c%c|o%d", role,
                  s.log_size2, s.time, s.epoch, s.gr, s.sum,
                  s.protocol_done ? 'D' : '-', s.updated_sum ? 'U' : '-',
                  s.has_output ? 'O' : '-', s.output);
    return buf;
  }

  /// Typed interning key (compile/intern.hpp): every field `state_label`
  /// prints, packed into four words with full 32-bit lanes (no range
  /// assumptions beyond the fields' own types, so the packing is injective
  /// for any Params).
  void state_key(const State& s, StateKeyBuf& key) const {
    key.push(static_cast<std::uint64_t>(s.role) |
             (static_cast<std::uint64_t>(s.protocol_done) << 8) |
             (static_cast<std::uint64_t>(s.updated_sum) << 9) |
             (static_cast<std::uint64_t>(s.has_output) << 10) |
             (static_cast<std::uint64_t>(s.log_size2) << 32));
    key.push(static_cast<std::uint64_t>(s.time) |
             (static_cast<std::uint64_t>(s.epoch) << 32));
    key.push(static_cast<std::uint64_t>(s.gr) |
             (static_cast<std::uint64_t>(s.sum) << 32));
    key.push(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.output)));
  }

  /// Bounded-field regime hook (compile/bounded.hpp): with every geometric
  /// draw capped at `cap`, clamp each field at its invariant ceiling and
  /// canonicalize dead fields.  Per the saturation contract:
  ///  * `time` is read only via `time >= time_threshold` (Check-if-Timer-Done
  ///    and Update-Sum), so saturating at the threshold is exact — the
  ///    unbounded protocol lets a waiting worker's clock tick forever;
  ///  * a finished worker's `time`/`gr`/`updatedSum` are dead: they are read
  ///    only under !protocolDone, and the Restart that clears protocolDone
  ///    also rewrites all three — canonicalizing them merges the states a
  ///    finished worker would otherwise keep cycling through (and turns
  ///    finished-finished interactions into nulls, which the batched
  ///    simulator's dispatch skips for free);
  ///  * a storage agent's `time`/`gr`/`updatedSum` are dead for the same
  ///    reason (roles are final; only workers tick, draw g.r.v.s, or deposit);
  ///  * `epoch` and `sum` are clamped at their reachability bounds
  ///    (epochs ≤ K(max logSize2); each of the ≤ K deposits adds ≤ cap),
  ///    which never bind — rule 3 of the contract.
  void saturate(State& s, std::uint32_t cap) const {
    const std::uint32_t ls_cap = cap + params_.logsize_offset;
    s.log_size2 = std::min(s.log_size2, ls_cap);
    const std::uint32_t epoch_cap = params_.epoch_multiplier * ls_cap;
    s.epoch = std::min(s.epoch, epoch_cap);
    s.sum = std::min(s.sum, epoch_cap * cap);
    s.gr = std::min(s.gr, cap);
    s.time = std::min(s.time, time_threshold(s));
    if (s.role == Role::A && s.protocol_done) {
      s.time = time_threshold(s);
      s.gr = 1;
      s.updated_sum = true;
    } else if (s.role == Role::S) {
      s.time = 0;
      s.gr = 1;
      s.updated_sum = false;
    }
  }

 private:
  // Subprotocol 2 (Partition-Into-A/S).  A fresh A draws its logSize2.
  template <RandomSource R>
  void partition_into_roles(State& receiver, State& sender, R& rng) const {
    if (sender.role == Role::X && receiver.role == Role::X) {
      sender.role = Role::A;
      sender.log_size2 = rng.geometric_fair() + params_.logsize_offset;
      receiver.role = Role::S;
    } else if (sender.role == Role::A && receiver.role == Role::X) {
      receiver.role = Role::S;
    } else if (sender.role == Role::S && receiver.role == Role::X) {
      receiver.role = Role::A;
      receiver.log_size2 = rng.geometric_fair() + params_.logsize_offset;
    }
  }

  // Subprotocol 4 (Restart): wipe all downstream computation.
  template <RandomSource R>
  void restart(State& s, R& rng) const {
    s.time = 0;
    s.sum = 0;
    s.epoch = 0;
    s.gr = rng.geometric_fair();
    s.protocol_done = false;
    s.updated_sum = false;
    s.has_output = false;
    s.output = 0;
  }

  // Subprotocol 3 (Propagate-Max-Clock-Value): adopt a larger logSize2 and
  // restart everything that depended on the old value.
  template <RandomSource R>
  void propagate_max_clock_value(State& receiver, State& sender, R& rng) const {
    if (receiver.log_size2 < sender.log_size2) {
      receiver.log_size2 = sender.log_size2;
      restart(receiver, rng);
    } else if (sender.log_size2 < receiver.log_size2) {
      sender.log_size2 = receiver.log_size2;
      restart(sender, rng);
    }
  }

  // Subprotocol 8 (Move-to-Next-G.R.V).
  template <RandomSource R>
  void move_to_next_grv(State& s, R& rng) const {
    s.time = 0;
    s.gr = rng.geometric_fair();
    s.updated_sum = false;
  }

  // Subprotocol 6 (Check-if-Timer-Done-and-Increment-Epoch).  `>=` rather
  // than `=` (DESIGN.md §4.1); the updatedSUM guard makes the epoch advance
  // only after this epoch's deposit.
  template <RandomSource R>
  void check_timer(State& s, R& rng) const {
    if (!s.protocol_done && s.time >= time_threshold(s) && s.updated_sum) {
      ++s.epoch;
      move_to_next_grv(s, rng);
      if (s.epoch >= epoch_target(s)) s.protocol_done = true;
    }
  }

  // Subprotocol 7 (Propagate-Incremented-Epoch).
  template <RandomSource R>
  void propagate_incremented_epoch(State& receiver, State& sender, R& rng) const {
    if (receiver.role == Role::A && sender.role == Role::A) {
      if (receiver.epoch < sender.epoch) {
        adopt_epoch_a(receiver, sender.epoch, rng);
      } else if (sender.epoch < receiver.epoch) {
        adopt_epoch_a(sender, receiver.epoch, rng);
      }
    } else if (receiver.role == Role::S && sender.role == Role::S) {
      if (receiver.epoch < sender.epoch) {
        receiver.epoch = sender.epoch;
        receiver.sum = sender.sum;
      } else if (sender.epoch < receiver.epoch) {
        sender.epoch = receiver.epoch;
        sender.sum = receiver.sum;
      } else {
        // Equal epochs: propagate the maximum sum (DESIGN.md §4.2) so that all
        // S lineages converge to a common value (Lemma 3.12).
        const std::uint32_t m = std::max(receiver.sum, sender.sum);
        receiver.sum = m;
        sender.sum = m;
      }
    }
  }

  template <RandomSource R>
  void adopt_epoch_a(State& s, std::uint32_t epoch, R& rng) const {
    s.epoch = epoch;
    move_to_next_grv(s, rng);
    // An agent catching up to the final epoch is finished (DESIGN.md §4;
    // without this it could deposit a (K+1)-th value).
    if (s.epoch >= epoch_target(s)) s.protocol_done = true;
  }

  // Subprotocol 9 (Update-Sum): a finished-epoch A deposits its gr into an S
  // agent at the same epoch.
  void update_sum(State& a, State& s) const {
    if (a.epoch == s.epoch && a.time >= time_threshold(a) && !a.protocol_done &&
        !a.updated_sum) {
      ++s.epoch;
      s.sum += a.gr;
      a.updated_sum = true;
    } else if (a.epoch < s.epoch) {
      a.updated_sum = true;
    }
  }

  // An S agent that has accumulated all K epochs computes the output
  // (recomputed whenever its sum rises via max-sum propagation).
  void finalize_storage(State& s) const {
    if (s.role == Role::S && s.epoch >= epoch_target(s) && s.epoch > 0) {
      s.protocol_done = true;
      s.output = static_cast<std::int32_t>(s.sum / s.epoch) + 1;
      s.has_output = true;
    }
  }

  // Done agents propagate the maximum output (converges to the max-sum value).
  void share_output(State& x, State& y) const {
    if (x.protocol_done && y.protocol_done && (x.has_output || y.has_output)) {
      std::int32_t m = std::numeric_limits<std::int32_t>::min();
      if (x.has_output) m = std::max(m, x.output);
      if (y.has_output) m = std::max(m, y.output);
      x.output = m;
      y.output = m;
      x.has_output = true;
      y.has_output = true;
    }
  }

  Params params_{};
};
static_assert(AgentProtocol<LogSizeEstimation>);

// ----- observers used by tests, examples and benches -------------------

/// All agents finished and agree on an output value.
inline bool converged(const AgentSimulation<LogSizeEstimation>& sim) {
  const auto& agents = sim.agents();
  if (!agents.front().has_output) return false;
  const std::int32_t value = agents.front().output;
  for (const auto& a : agents) {
    if (!a.protocol_done || !a.has_output || a.output != value) return false;
  }
  return true;
}

/// The common output (requires `converged`).
inline std::int32_t estimate(const AgentSimulation<LogSizeEstimation>& sim) {
  return sim.agents().front().output;
}

/// Record each field's maximum over all agents (Lemma 3.9 state counting).
inline void record_field_ranges(const AgentSimulation<LogSizeEstimation>& sim,
                                FieldRangeRecorder& recorder) {
  for (const auto& a : sim.agents()) {
    recorder.observe("logSize2", a.log_size2);
    recorder.observe("gr", a.gr);
    recorder.observe("time", a.time);
    recorder.observe("epoch", a.epoch);
    recorder.observe("sum", a.sum);
  }
}

}  // namespace pops
