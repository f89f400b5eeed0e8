// Lazy/JIT compilation: intern states on first contact, compile each
// (receiver, sender) pair the first time a simulation dispatches it.
//
// The eager `ProtocolCompiler` closes the whole reachable pair space up
// front — states² pair enumeration, which pins interactive compiles at
// geometric caps c ≈ 4 and makes the distribution-faithful regime
// (c ≳ log₂ n) unreachable.  But a *run* only ever dispatches pairs of
// states that actually co-occur in its configuration: for the headline
// protocols at c = 8 that is orders of magnitude below the closure's pair
// space.  `LazyCompiledSpec` exploits this by implementing the simulators'
// `JitCompiler` hook (sim/shared_dispatch.hpp):
//
//   * construction enumerates only the initial states (exact distribution,
//     as in the eager path) and registers them with an empty table;
//   * when a simulator's dispatch lookup misses, it calls `compile_pair`,
//     which replays `interact` over every randomized branch (ChoiceRng),
//     interns any new output states, and registers the resulting cell —
//     explicitly-null cells included (stored compactly as a row-slot code,
//     no Cell record), so each pair compiles exactly once;
//   * the table extends incrementally and the simulator grows its count
//     vectors to match, so the states² compile barrier and the S² table
//     memory floor both disappear.
//
// Pair compilation consumes no simulation randomness (branch enumeration is
// deterministic), so a lazy run under a fixed seed is reproducible, and the
// compiled fragment is *exactly* the eager closure restricted to touched
// pairs: the lazily-interned state set is a subset of the eager state set
// (modulo id numbering — both intern in discovery order, but discovery
// orders differ) and every compiled cell carries identical transitions
// (tests/test_lazy_compile.cpp asserts both).  The table persists across
// `reset()`/trials on the same LazyCompiledSpec, so multi-trial experiments
// pay the JIT cost once — warm trials run at full batched speed.
//
// Concurrency contract (thread-safe since the sharded JIT):
//
//   * any number of simulators may step one shared LazyCompiledSpec from
//     different threads (run_trials_parallel fans equivalence/bench trials
//     out this way, over the process-wide executor — core/executor.hpp,
//     whose set_threads()/POPS_THREADS width bounds the whole fan-out).
//     `compile_pair` shards its critical section by
//     receiver id — per-shard mutexes cover branch exploration + cell
//     publication, interning serializes only on insertion, and dispatch
//     lookups stay lock-free against the atomically published row views;
//   * per-seed trial results are identical at any thread count: state *ids*
//     depend on which thread interns first, but a trial's trajectory is
//     equivariant under id relabeling (the simulators iterate insertion-
//     ordered id lists, never id-sorted ranges), so observables evaluated
//     on typed states — and the interned state/pair *sets* as label sets —
//     are scheduling-independent (tests/test_jit_concurrency.cpp);
//   * name-registry queries (`spec().name/id/has_state`) require
//     quiescence: call them between runs, not concurrently with stepping
//     simulators that may still compile pairs.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compile/compiler.hpp"
#include "sim/require.hpp"
#include "sim/shared_dispatch.hpp"

namespace pops {

template <CompilableProtocol P>
class LazyCompiledSpec final : public JitCompiler {
 public:
  explicit LazyCompiledSpec(P protocol, std::uint32_t geometric_cap,
                            CompileOptions opts = {})
      : core_(std::move(protocol), geometric_cap, opts),
        table_(opts.max_states, opts.max_pairs) {
    core_.enumerate_initial(initial_distribution_);
    initial_distribution_.resize(core_.num_states(), 0.0);
    table_.grow_states(core_.num_states());
  }

  // ------------------------------------------------ JitCompiler interface --

  void compile_pair(std::uint32_t receiver, std::uint32_t sender) override {
    Shard& shard = shards_[DispatchTable::shard_of(receiver)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (table_.find(receiver, sender).present) return;  // lost a compile race
    POPS_REQUIRE(table_.num_cells() < core_.options().max_pairs,
                 "pair explosion: raise CompileOptions.max_pairs or lower the "
                 "field caps");
    core_.explore(receiver, sender, shard.cell);
    shard.entries.clear();
    for (const auto& c : shard.cell) {
      shard.entries.push_back(
          DispatchTable::Entry{c.out_receiver, c.out_sender, c.rate});
    }
    table_.grow_states(core_.num_states());  // outputs may be new states
    table_.set_cell(receiver, sender, shard.entries.data(),
                    static_cast<std::uint32_t>(shard.entries.size()));
  }

  const DispatchTable& table() const override { return table_; }
  const FiniteSpec& spec() const override { return core_.spec(); }

  // ------------------------------------------------------------ compiled --

  const P& protocol() const { return core_.protocol(); }
  std::uint32_t geometric_cap() const { return core_.geometric_cap(); }
  std::uint32_t num_states() const { return core_.num_states(); }
  std::size_t pairs_compiled() const { return table_.num_cells(); }
  std::size_t null_pairs_compiled() const { return table_.num_null_cells(); }
  std::uint64_t paths_explored() const { return core_.paths_explored(); }
  const StateInterner<typename P::State>& states() const { return core_.states(); }
  const std::vector<double>& initial_distribution() const { return initial_distribution_; }

  /// Ids carrying positive initial mass.
  std::vector<std::uint32_t> initial_states() const {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < initial_distribution_.size(); ++i) {
      if (initial_distribution_[i] > 0.0) ids.push_back(i);
    }
    return ids;
  }

  /// Seed a count-API simulator with the n-agent initial configuration.
  template <typename Sim>
  void seed_initial(Sim& sim, std::uint64_t n, Rng& rng) const {
    seed_initial_distribution(sim, n, rng, initial_distribution_);
  }

  /// Typed observable on a count vector.  `counts` may be shorter than the
  /// interned state set (a snapshot taken before later pairs compiled).
  template <typename Pred>
  std::uint64_t count_matching(const std::vector<std::uint64_t>& counts,
                               Pred&& pred) const {
    return count_matching_states(core_.states(), counts, pred);
  }

 private:
  /// Per-shard critical section: mutex + compile scratch it protects.
  struct Shard {
    std::mutex mutex;
    std::vector<typename CompilerCore<P>::CellEntry> cell;
    std::vector<DispatchTable::Entry> entries;
  };

  CompilerCore<P> core_;
  DispatchTable table_;
  std::vector<double> initial_distribution_;
  std::array<Shard, DispatchTable::kNumShards> shards_;
};

}  // namespace pops
