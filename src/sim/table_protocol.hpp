// A dispatch table as an `AgentProtocol` whose State is the state id: the
// exact oracle of the differential tests.  It steps an eager `FiniteSpec`
// or a `JitCompiler` source, which compiles each pair on first contact.
// `interact` fires a cell as `BatchedCountSimulation` does — null: no-op;
// deterministic: its entry; randomized: `pick` on one uniform, residual
// mass null — so `AgentSimulation<TableProtocol>` shares `find` and `pick`
// with the engine and none of its epoch pipeline.  Θ(n) memory: a tool for
// test-sized populations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/agent_simulation.hpp"
#include "sim/shared_dispatch.hpp"

namespace pops {

class TableProtocol {
 public:
  using State = std::uint32_t;

  /// Eager mode: `spec` is loaded into a table the copies share (the table
  /// build checks the spec's rules).
  explicit TableProtocol(const FiniteSpec& spec)
      : owned_(std::make_shared<const DispatchTable>(spec)), table_(owned_.get()) {}
  /// `jit` must outlive every copy; simulators on other threads may share it.
  explicit TableProtocol(JitCompiler& jit) : table_(&jit.table()), jit_(&jit) {}

  /// Every agent starts in state 0; `AgentSimulation::set_state` plants others.
  State initial(Rng&) const { return 0; }

  void interact(State& receiver, State& sender, Rng& rng) const {
    DispatchTable::Cell cell = table_->find(receiver, sender);
    if (!cell.present && jit_ != nullptr) {
      jit_->compile_pair(receiver, sender);
      cell = table_->find(receiver, sender);
    }
    const DispatchTable::Entry* e = cell.begin;
    if (cell.kind == DispatchTable::CellKind::kNull) return;
    if (cell.kind == DispatchTable::CellKind::kRandomized) {
      e = DispatchTable::pick(cell, rng.uniform_double());
      if (e == nullptr) return;  // residual mass: null transition
    }
    receiver = e->out_receiver;
    sender = e->out_sender;
  }

  std::uint32_t num_states() const { return table_->num_states(); }

 private:
  std::shared_ptr<const DispatchTable> owned_;  ///< eager mode only
  const DispatchTable* table_;
  JitCompiler* jit_ = nullptr;  ///< JIT mode only
};

/// Configuration of an oracle run, indexed by state id.
inline std::vector<std::uint64_t> state_counts(const AgentSimulation<TableProtocol>& sim) {
  std::vector<std::uint64_t> counts(sim.protocol().num_states(), 0);
  for (const std::uint32_t s : sim.agents()) ++counts[s];
  return counts;
}

}  // namespace pops
