// Count-based (configuration-vector) simulator for finite-state protocols.
//
// A configuration ~c ∈ N^Λ (paper, Section 2) stores the count of each state.
// Each step draws an ordered pair of *distinct* agents uniformly — the
// receiver is a uniform agent-slot in the cumulative count order, and the
// sender is drawn by rejection: uniform agent-slots are redrawn until one
// differs from the receiver's slot, which is exactly uniform over the other
// n−1 agents and never mutates the Fenwick tree.  The fired transition comes
// from the dispatch table (sim/dispatch.hpp); deterministic cells skip the
// rate draw entirely.
//
// Two construction modes share one table type and one lookup:
//   * eager — a complete `FiniteSpec` loaded into a `DispatchTable` the
//     simulator owns; a pair with no cell is a null interaction;
//   * lazy  — the table of a `JitCompiler` (compile/lazy.hpp), which compiles
//     each (receiver, sender) pair the first time the lookup finds it
//     absent; the simulator grows its Fenwick sampler whenever the JIT
//     interns new states.
//
// For protocols with S = O(1) states this is dramatically faster than
// per-agent simulation (no Θ(n) agent array to touch) and is exact: the
// induced Markov chain on configurations is identical to the agent-level one.
// For Θ(√n)-interaction batches on top of the same dispatch table, see
// sim/batched_count_simulation.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/finite_spec.hpp"
#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "sim/shared_dispatch.hpp"
#include "sim/weighted_sampler.hpp"

namespace pops {

class CountSimulation {
 public:
  CountSimulation(FiniteSpec spec, std::uint64_t seed)
      : spec_storage_(std::move(spec)),
        spec_(&spec_storage_),
        rng_(seed),
        sampler_(spec_storage_.num_states()) {
    spec_storage_.validate();
    owned_table_ = std::make_unique<const DispatchTable>(spec_storage_);
    table_ = owned_table_.get();
  }

  /// Lazy/JIT mode: pairs compile on first contact; `jit` must outlive the
  /// simulator (it owns the growing table and the interned state names).
  /// Multiple simulators on different threads may share one `jit` source —
  /// its table is lock-free to read and compile_pair is sharded.
  CountSimulation(JitCompiler& jit, std::uint64_t seed)
      : spec_(&jit.spec()),
        rng_(seed),
        sampler_(jit.table().num_states()),
        table_(&jit.table()),
        jit_(&jit) {}

  // spec_ points into own storage in eager mode; copies would dangle.
  CountSimulation(const CountSimulation&) = delete;
  CountSimulation& operator=(const CountSimulation&) = delete;

  /// Set the initial count of a state (before stepping).
  void set_count(const std::string& state, std::uint64_t count) {
    set_count(spec_->id(state), count);
  }
  void set_count(std::uint32_t state, std::uint64_t count) {
    sync_states();
    const std::uint64_t rest = sampler_.total() - sampler_.count(state);
    POPS_REQUIRE(count < kMaxPopulation - rest, "population size must stay below 2^63");
    sampler_.set_count(state, count);
  }

  std::uint64_t count(const std::string& state) const {
    return spec_->has_state(state) ? count(spec_->id(state)) : 0;
  }
  std::uint64_t count(std::uint32_t state) const {
    return state < sampler_.size() ? sampler_.count(state) : 0;
  }
  std::uint64_t population_size() const { return sampler_.total(); }
  std::uint64_t interactions() const { return interactions_; }
  const FiniteSpec& spec() const { return *spec_; }

  double time() const {
    return static_cast<double>(interactions_) / static_cast<double>(population_size());
  }

  /// One interaction.
  void step() {
    sync_states();  // another simulator on the same JIT source may have grown it
    const std::uint64_t n = population_size();
    POPS_REQUIRE(n >= 2, "population too small to interact");
    // Receiver: a uniform agent-slot.  Sender: rejection over agent-slots —
    // redraw on the receiver's exact slot, so the tree is never touched just
    // to exclude one agent (expected < 2 draws even for n = 2).
    const std::uint64_t receiver_slot = rng_.below(n);
    const std::size_t receiver = sampler_.find(receiver_slot);
    std::uint64_t sender_slot = rng_.below(n);
    while (sender_slot == receiver_slot) sender_slot = rng_.below(n);
    const std::size_t sender = sampler_.find(sender_slot);
    apply(static_cast<std::uint32_t>(receiver), static_cast<std::uint32_t>(sender));
    ++interactions_;
  }

  void steps(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) step();
  }

  void advance_time(double dt) {
    steps(interactions_in(dt, population_size()));
  }

  template <typename Pred>
  double run_until(Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
    POPS_REQUIRE(check_dt > 0.0, "run_until needs check_dt > 0");
    while (time() < max_time) {
      if (done(*this)) return time();
      advance_time(check_dt);
    }
    return done(*this) ? time() : -1.0;
  }

  /// Snapshot of all counts, indexed by state id.
  std::vector<std::uint64_t> counts() const { return sampler_.counts(); }

 private:
  /// Dispatch lookup with the JIT fallback: an unregistered pair under a lazy
  /// source is compiled in place (possibly interning new states) and looked
  /// up again.  Compilation consumes no simulation randomness, so lazy runs
  /// are deterministic under a fixed seed.
  DispatchTable::Cell lookup(std::uint32_t receiver, std::uint32_t sender) {
    DispatchTable::Cell cell = table_->find(receiver, sender);
    if (!cell.present && jit_ != nullptr) {
      jit_->compile_pair(receiver, sender);
      sync_states();
      cell = table_->find(receiver, sender);
    }
    return cell;
  }

  void sync_states() {
    const std::uint32_t s = table_->num_states();
    if (s > sampler_.size()) sampler_.grow(s);
  }

  void apply(std::uint32_t receiver, std::uint32_t sender) {
    const DispatchTable::Cell cell = lookup(receiver, sender);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        return;
      case DispatchTable::CellKind::kDeterministic:
        fire(*cell.begin, receiver, sender);
        return;
      case DispatchTable::CellKind::kRandomized: {
        const auto* e = DispatchTable::pick(cell, rng_.uniform_double());
        if (e != nullptr) fire(*e, receiver, sender);
        return;  // nullptr: residual probability mass, null transition
      }
    }
  }

  void fire(const DispatchTable::Entry& e, std::uint32_t receiver,
            std::uint32_t sender) {
    // A cell compiled by *another* simulator thread sharing our JIT source
    // can reference states interned after our last sync.
    if (std::max(e.out_receiver, e.out_sender) >= sampler_.size()) [[unlikely]] {
      sync_states();
    }
    if (e.out_receiver != receiver) {
      sampler_.add(receiver, -1);
      sampler_.add(e.out_receiver, +1);
    }
    if (e.out_sender != sender) {
      sampler_.add(sender, -1);
      sampler_.add(e.out_sender, +1);
    }
  }

  FiniteSpec spec_storage_;       ///< owned in eager mode; empty in lazy mode
  const FiniteSpec* spec_;
  Rng rng_;
  WeightedSampler sampler_;
  std::unique_ptr<const DispatchTable> owned_table_;  ///< eager mode only
  const DispatchTable* table_ = nullptr;
  JitCompiler* jit_ = nullptr;                         ///< lazy mode only
  std::uint64_t interactions_ = 0;
};

}  // namespace pops
