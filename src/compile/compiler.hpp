// Finite-state protocol compiler: agent-level transition algorithm in,
// `FiniteSpec` out.
//
// The paper states its constructions as per-agent programs over fields
// (Section 3), but the count engine (sim/batched_count_simulation.hpp) and
// the table oracle (sim/table_protocol.hpp) consume the Section-4 object — a
// finite transition relation with rate constants.  For any `BoundableProtocol`
// (compile/bounded.hpp) the translation is mechanical, and this compiler
// performs it:
//
//   1. Enumerate the initial states: run `initial` under `ChoiceRng`
//      (compile/choice.hpp), one replay per randomized branch; accumulate
//      the exact probability of each distinct resulting state.
//   2. Close under interaction: for every ordered pair (r, s) of discovered
//      states, replay `interact` over all branches; each leaf yields an
//      output pair with a dyadic-exact path probability.  Leaves that leave
//      both states unchanged become residual null mass; the rest merge into
//      rated `Transition`s (a,b →ρ c,d).  Newly produced states join the
//      frontier, so only *reachable* states are ever paired — the closure
//      itself is the pruning; the full field-product space is never built.
//      The emitted state set equals the producibility closure Λ^∞_ρ of the
//      emitted spec from the initial states (termination/producibility.hpp),
//      which `closure_matches` cross-checks.
//   3. Check the spec's rules as it is emitted: `FiniteSpec::add` checks
//      each transition, and each pair's rates, summed as they are added,
//      must stay within `FiniteSpec::require_pair_rate`.  Each pair is
//      emitted exactly once and in one piece, so the spec leaves the
//      compiler valid with no `validate()` pass over its transitions.
//
// Encoding / interning scheme: each distinct agent state is identified by
// its *canonical key* — the field tuple packed by the protocol's `state_key`
// hook (compile/intern.hpp), falling back to the bytes of `state_label`,
// either of which must be injective on saturated states.  `Bounded`'s
// saturate hook runs before any state reaches the compiler, so keys never
// see a dead field's stale value; distinct keys really are distinct
// behaviors.  Keys intern to dense ids in discovery order via the
// lock-free-lookup `StateInterner`; the id is simultaneously (a) the index
// into `CompileResult::states` (the typed representative, for evaluating
// observables on count vectors) and (b) the `FiniteSpec` state id (names
// registered in the same order — the string label is built once per unique
// state, for the debug/golden surface only), so no translation table is
// needed between the typed and the compiled world.
//
// The interning + branch-enumeration machinery lives in `CompilerCore`,
// shared by two closure strategies:
//   * eager — `ProtocolCompiler` BFS-closes the whole reachable pair space
//     up front (this file), fanning each frontier round's (receiver, sender)
//     pair chunks out over the process-wide executor (core/executor.hpp).
//     Workers intern privately and one serial pair-order merge assigns
//     global ids, so the result is bit-identical to the single-threaded
//     sweep at any thread count;
//   * lazy  — `LazyCompiledSpec` (compile/lazy.hpp) interns states on first
//     contact *during simulation* and compiles only the (receiver, sender)
//     pairs a run actually touches, lifting the states² barrier and
//     admitting caps c ≈ log₂ n.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compile/bounded.hpp"
#include "compile/choice.hpp"
#include "compile/intern.hpp"
#include "core/executor.hpp"
#include "sim/finite_spec.hpp"
#include "sim/require.hpp"
#include "stats/discrete.hpp"
#include "termination/producibility.hpp"

namespace pops {

/// What the compiler needs: branch-enumerable initial/interact plus the
/// canonical label.  `Bounded<P>` satisfies this for any BoundableProtocol P.
template <typename P>
concept CompilableProtocol =
    std::copyable<typename P::State> &&
    requires(const P p, typename P::State& a, typename P::State& b, ChoiceRng& c) {
      { p.initial(c) } -> std::same_as<typename P::State>;
      p.interact(a, b, c);
      { p.state_label(a) } -> std::convertible_to<std::string>;
    };

struct CompileOptions {
  std::size_t max_states = 100000;         ///< explosion guard (throws beyond)
  std::size_t max_transitions = 30000000;  ///< ~720 MB of Transition entries
  std::size_t max_pairs = 20000000;        ///< lazy-mode registered-pair guard
};

/// Seed a count-API simulator with the n-agent initial configuration: each
/// agent draws independently from `distribution` (indexed by state id),
/// realized exactly by a chained binomial split (multinomial sampling).
template <typename Sim>
void seed_initial_distribution(Sim& sim, std::uint64_t n, Rng& rng,
                               const std::vector<double>& distribution) {
  std::uint64_t rem = n;
  double rest = 1.0;
  for (std::uint32_t id = 0; id < distribution.size() && rem > 0; ++id) {
    const double p = distribution[id];
    if (p <= 0.0) continue;
    const std::uint64_t k = p >= rest ? rem : binomial(rng, rem, p / rest);
    if (k > 0) sim.set_count(id, k);
    rem -= k;
    rest -= p;
  }
  POPS_REQUIRE(rem == 0, "initial distribution left agents unassigned");
}

/// Typed observable on a count vector: total count over states satisfying
/// `pred` (a predicate on the typed state).  `States` is any id-indexed
/// container of typed representatives (std::vector or StateInterner).
template <typename States, typename Pred>
std::uint64_t count_matching_states(const States& states,
                                    const std::vector<std::uint64_t>& counts,
                                    Pred&& pred) {
  POPS_REQUIRE(counts.size() <= states.size(), "count vector/spec size mismatch");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0 && pred(states[static_cast<std::uint32_t>(i)])) total += counts[i];
  }
  return total;
}

/// The machinery both compilation modes share: canonical-key interning to
/// dense ids (mirrored into a FiniteSpec name registry), ChoiceRng branch
/// enumeration of `initial`, and per-pair branch enumeration of `interact`
/// with per-output rate merging.
///
/// Concurrency: `intern`/`explore` are safe to call from multiple threads —
/// the interner takes a mutex only on insertion (lookups are lock-free), and
/// exploration writes into caller-owned scratch.  The FiniteSpec name
/// registry grows under the same insert mutex; *reading* names
/// (`spec().name/id/has_state`) requires quiescence — no concurrent
/// compilation — which every harness satisfies by querying after runs.
template <CompilableProtocol P>
class CompilerCore {
 public:
  struct CellEntry {
    std::uint32_t out_receiver = 0;
    std::uint32_t out_sender = 0;
    double rate = 1.0;
  };

  CompilerCore(P protocol, std::uint32_t geometric_cap, CompileOptions opts)
      : proto_(std::move(protocol)),
        cap_(geometric_cap),
        opts_(opts),
        interner_(opts.max_states) {
    // Labels are deferred: interning registers only an id, and the spec
    // renders the label from the interned typed state on first name()
    // query — JIT-heavy runs that never print names never pay for them.
    // Safe to capture `this`: CompilerCore is pinned (the interner's mutex
    // makes it immovable).  The eager compiler materializes the registry
    // when it moves the spec out (see ProtocolCompiler::compile).
    spec_.set_lazy_namer(
        [this](std::uint32_t id) { return proto_.state_label(interner_[id]); });
  }

  const P& protocol() const { return proto_; }
  std::uint32_t geometric_cap() const { return cap_; }
  const CompileOptions& options() const { return opts_; }
  const FiniteSpec& spec() const { return spec_; }
  FiniteSpec& mutable_spec() { return spec_; }
  const StateInterner<typename P::State>& states() const { return interner_; }
  std::vector<typename P::State> snapshot_states() const { return interner_.snapshot(); }
  std::uint32_t num_states() const { return interner_.size(); }
  std::uint64_t pairs_explored() const {
    return pairs_explored_.load(std::memory_order_relaxed);
  }
  std::uint64_t paths_explored() const {
    return paths_explored_.load(std::memory_order_relaxed);
  }

  /// Intern a (saturated) state, returning its dense id.  Thread-safe; the
  /// slow path registers a lazily-named state with the spec under the
  /// insert mutex, keeping name order == id order — no label is built
  /// until someone asks for it.
  std::uint32_t intern(const typename P::State& s) {
    StateKeyBuf key;
    build_state_key(proto_, s, key);
    const std::uint64_t hash = key.hash();
    const std::uint32_t id = interner_.find(key, hash);
    if (id != StateInterner<typename P::State>::kNotFound) return id;
    return interner_.intern(s, key, hash,
                            [this](std::uint32_t new_id, const typename P::State&) {
      const std::uint32_t spec_id = spec_.add_unnamed_state();
      POPS_REQUIRE(spec_id == new_id, "spec/compiler id order diverged");
    });
  }

  /// Enumerate the initial states and accumulate their exact distribution
  /// (indexed by id; grows `distribution` as states intern).
  void enumerate_initial(std::vector<double>& distribution) {
    enumerate_choices(cap_, [&](ChoiceRng& rng) {
      typename P::State s = proto_.initial(rng);
      const std::uint32_t id = intern(s);
      if (distribution.size() < interner_.size()) {
        distribution.resize(interner_.size(), 0.0);
      }
      distribution[id] += rng.path_probability();
    });
  }

  /// Enumerate all interaction branches of ordered input pair (r, s) into
  /// `cell`, merging per-output probabilities (identity outputs stay
  /// residual null mass).  Output states resolve to ids through `resolve`,
  /// which must map equal states to equal ids and input states to r/s —
  /// `intern` for the interning modes, a global-probe-else-local-intern
  /// resolver for the parallel closure's workers.
  template <typename Resolve>
  void explore_into(std::uint32_t r, std::uint32_t s, std::vector<CellEntry>& cell,
                    Resolve&& resolve) {
    cell.clear();
    std::uint64_t paths = 0;
    enumerate_choices(cap_, [&](ChoiceRng& rng) {
      typename P::State a = interner_[r];  // fresh copies per path
      typename P::State b = interner_[s];
      proto_.interact(a, b, rng);
      ++paths;
      const std::uint32_t oa = resolve(a);
      const std::uint32_t ob = resolve(b);
      if (oa == r && ob == s) return;  // null path
      const double p = rng.path_probability();
      for (auto& c : cell) {
        if (c.out_receiver == oa && c.out_sender == ob) {
          c.rate += p;
          return;
        }
      }
      cell.push_back(CellEntry{oa, ob, p});
    });
    pairs_explored_.fetch_add(1, std::memory_order_relaxed);
    paths_explored_.fetch_add(paths, std::memory_order_relaxed);
    for (auto& c : cell) c.rate = c.rate > 1.0 ? 1.0 : c.rate;
  }

  /// Interning exploration: outputs intern as they appear (eager sequential
  /// sweep, merge phase, and the JIT's compile_pair).
  void explore(std::uint32_t r, std::uint32_t s, std::vector<CellEntry>& cell) {
    explore_into(r, s, cell, [this](const typename P::State& st) { return intern(st); });
  }

 private:
  P proto_;
  std::uint32_t cap_;
  CompileOptions opts_;
  StateInterner<typename P::State> interner_;
  FiniteSpec spec_;  ///< names interned in id order; transitions only eager
  std::atomic<std::uint64_t> pairs_explored_{0};
  std::atomic<std::uint64_t> paths_explored_{0};
};

template <CompilableProtocol P>
struct CompileResult {
  FiniteSpec spec;
  std::vector<typename P::State> states;    ///< dense id -> typed representative
  std::vector<double> initial_distribution; ///< by id; sums to exactly 1
  std::uint64_t pairs_explored = 0;
  std::uint64_t paths_explored = 0;

  std::uint32_t num_states() const { return spec.num_states(); }
  std::size_t num_transitions() const { return spec.transitions().size(); }

  /// Ids carrying positive initial mass.
  std::vector<std::uint32_t> initial_states() const {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < initial_distribution.size(); ++i) {
      if (initial_distribution[i] > 0.0) ids.push_back(i);
    }
    return ids;
  }

  /// Seed a count-API simulator with the n-agent initial configuration.
  template <typename Sim>
  void seed_initial(Sim& sim, std::uint64_t n, Rng& rng) const {
    seed_initial_distribution(sim, n, rng, initial_distribution);
  }

  /// Typed observable on a count vector: total count over states satisfying
  /// `pred` (a predicate on P::State).
  template <typename Pred>
  std::uint64_t count_matching(const std::vector<std::uint64_t>& counts,
                               Pred&& pred) const {
    POPS_REQUIRE(counts.size() == states.size(), "count vector/spec size mismatch");
    return count_matching_states(states, counts, pred);
  }
};

/// Cross-check against the Section-4 machinery: the producibility closure of
/// the emitted spec from the initial states must cover exactly the interned
/// state set (BFS discovery and the Λ^m_ρ chain agree).  Quadratic-ish in
/// spec size — intended for tests on small compiled specs.
template <CompilableProtocol P>
bool closure_matches(const CompileResult<P>& result) {
  const auto init = result.initial_states();
  ProducibilityClosure closure(result.spec,
                               std::set<std::uint32_t>(init.begin(), init.end()),
                               result.num_states(), 0.0);
  return closure.closure().size() == result.num_states();
}

template <CompilableProtocol P>
class ProtocolCompiler {
 public:
  /// `geometric_cap` bounds branch enumeration of geometric draws and must
  /// match the cap the protocol simulates with (compile_bounded ties them).
  ProtocolCompiler(P protocol, std::uint32_t geometric_cap, CompileOptions opts = {})
      : core_(std::move(protocol), geometric_cap, opts) {}

  /// Close the reachable pair space and emit the spec.  `threads` = 0 uses
  /// the process-wide executor's width (Executor::set_threads pins it);
  /// the result is bit-identical (state ids, name order, transition order,
  /// rates) at every thread count, because workers only ever *read* the
  /// global interner and the merge phase interns their private discoveries
  /// in the sequential sweep's pair order.  Closure rounds fan out as
  /// executor tasks, so a compile nested inside a pool task (a trial that
  /// compiles) shares the process budget instead of oversubscribing.
  CompileResult<P> compile(unsigned threads = 0) {
    if (threads == 0) threads = Executor::instance().threads();
    CompileResult<P> out;
    core_.enumerate_initial(out.initial_distribution);
    // Reachable-pair closure, in frontier rounds.  Round k extends the sweep
    // to the states known at its start: processing state u pairs it (both
    // orders) with every state of id <= u, so all ordered pairs over known
    // states are explored exactly once and states discovered mid-round are
    // picked up by the next round.  The pair sequence — row u covers the
    // pairs whose larger id is u — is identical to the classic interleaved
    // loop `for u < num_states(): for v <= u`, which is what makes the
    // parallel rounds' deterministic merge reproduce its exact id order.
    std::vector<typename CompilerCore<P>::CellEntry> scratch;
    std::uint32_t closed = 0;
    while (closed < core_.num_states()) {
      const std::uint32_t known = core_.num_states();
      const std::uint64_t round_pairs = static_cast<std::uint64_t>(known) * known -
                                        static_cast<std::uint64_t>(closed) * closed;
      if (threads == 1 || round_pairs < kParallelRoundCutoff) {
        for (std::uint32_t u = closed; u < known; ++u) {
          for (std::uint32_t v = 0; v <= u; ++v) {
            emit(u, v, scratch);
            if (v != u) emit(v, u, scratch);
          }
        }
      } else {
        close_round_parallel(closed, known, threads);
      }
      closed = known;
    }
    out.initial_distribution.resize(core_.num_states(), 0.0);
    out.pairs_explored = core_.pairs_explored();
    out.paths_explored = core_.paths_explored();
    out.states = core_.snapshot_states();
    out.spec = std::move(core_.mutable_spec());
    // The core's namer renders through the interner, which dies with this
    // compiler — materialize the registry now (one id-ordered pass, still
    // off the per-path hot loop) so the CompileResult is self-contained
    // and its name accessors are pure concurrent-safe reads.  Only the
    // JIT path (LazyCompiledSpec) keeps labels deferred; it owns its core.
    out.spec.materialize_names();
    return out;
  }

 private:
  using CellEntry = typename CompilerCore<P>::CellEntry;

  static constexpr std::uint64_t kParallelRoundCutoff = 2048;  ///< pairs
  static constexpr std::uint64_t kPairChunk = 64;              ///< work unit
  /// Per-batch pair cap (bounds the merge index at ~48 MB however big the
  /// closure).  Tests override it (POPS_COMPILE_BATCH_PAIRS) to force batch
  /// splits on small presets.
  static constexpr std::uint64_t kMaxBatchPairs =
#ifdef POPS_COMPILE_BATCH_PAIRS
      POPS_COMPILE_BATCH_PAIRS;
#else
      std::uint64_t{1} << 22;
#endif
  static constexpr std::uint32_t kProvisional = 0x80000000u;   ///< worker-local id tag

  /// Linearized pair sequence: positions [u², (u+1)²) hold row u — (u,0),
  /// (0,u), (u,1), (1,u), …, (u,u) — matching the sequential sweep's order.
  static std::pair<std::uint32_t, std::uint32_t> decode_pair(std::uint64_t p) {
    std::uint64_t u = static_cast<std::uint64_t>(
        std::sqrt(static_cast<double>(p)));
    while (u * u > p) --u;
    while ((u + 1) * (u + 1) <= p) ++u;
    const std::uint64_t k = p - u * u;
    const auto ui = static_cast<std::uint32_t>(u);
    if (k == 2 * u) return {ui, ui};
    const auto vi = static_cast<std::uint32_t>(k / 2);
    return (k % 2 == 0) ? std::pair{ui, vi} : std::pair{vi, ui};
  }

  void emit(std::uint32_t r, std::uint32_t s, std::vector<CellEntry>& scratch) {
    core_.explore(r, s, scratch);
    double total = 0.0;
    for (const auto& c : scratch) {
      core_.mutable_spec().add(r, s, c.out_receiver, c.out_sender, c.rate);
      total += c.rate;
    }
    core_.spec().require_pair_rate(r, s, total);
    require_transition_room();
  }

  void require_transition_room() const {
    POPS_REQUIRE(core_.spec().transitions().size() <= core_.options().max_transitions,
                 "transition explosion: raise CompileOptions.max_transitions or "
                 "lower the field caps");
  }

  /// One parallel frontier round over pair positions [closed², known²),
  /// processed in batches of at most kMaxBatchPairs so the per-pair index
  /// and worker arenas stay bounded (the sequential sweep's memory is
  /// O(transitions); a dense per-pair vector over a whole ~S² round would
  /// not be).  Batching preserves bit-identity: batches run in pair order,
  /// and a state merged by an earlier batch simply resolves globally
  /// instead of provisionally — same id either way.
  void close_round_parallel(std::uint32_t closed, std::uint32_t known, unsigned threads) {
    POPS_REQUIRE(core_.options().max_states <= kProvisional,
                 "max_states collides with the provisional-id tag bit");
    const std::uint64_t begin = static_cast<std::uint64_t>(closed) * closed;
    const std::uint64_t end = static_cast<std::uint64_t>(known) * known;
    for (std::uint64_t batch = begin; batch < end; batch += kMaxBatchPairs) {
      close_pair_batch(batch, std::min(end, batch + kMaxBatchPairs), threads);
    }
  }

  /// Workers claim pair chunks of [begin, end) from an atomic cursor (the
  /// load balancing: the executor runs one body per worker), explore
  /// against the frozen global interner, stash unknown output states in a
  /// private StateInterner under provisional ids, and append their cells
  /// to private arenas.  One serial walk then emits the batch in pair
  /// order, interning each provisional state at its first reference.
  void close_pair_batch(std::uint64_t begin, std::uint64_t end, unsigned threads) {
    using State = typename P::State;
    struct PairCell {
      std::uint32_t worker = 0;
      std::uint32_t offset = 0;
      std::uint32_t len = 0;
    };
    struct WorkerOut {
      explicit WorkerOut(std::size_t max_states) : local(max_states) {}
      std::vector<CellEntry> entries;  ///< concatenated per-pair cells
      StateInterner<State> local;      ///< states new to the global interner
    };

    std::vector<PairCell> cells(end - begin);
    const unsigned workers = static_cast<unsigned>(
        std::min<std::uint64_t>(threads, (end - begin + kPairChunk - 1) / kPairChunk));
    std::deque<WorkerOut> outs;  // a deque: the interners are immovable
    for (unsigned w = 0; w < workers; ++w) outs.emplace_back(core_.options().max_states);
    std::atomic<std::uint64_t> cursor{begin};

    auto worker_body = [&](unsigned w) {
      WorkerOut& wo = outs[w];
      std::vector<CellEntry> cell;
      auto resolve = [&](const State& st) -> std::uint32_t {
        StateKeyBuf key;
        build_state_key(core_.protocol(), st, key);
        const std::uint64_t hash = key.hash();
        const std::uint32_t g = core_.states().find(key, hash);
        if (g != StateInterner<State>::kNotFound) return g;
        std::uint32_t local = wo.local.find(key, hash);
        if (local == StateInterner<State>::kNotFound) {
          POPS_REQUIRE(core_.num_states() + wo.local.size() < core_.options().max_states,
                       "state-space explosion: raise CompileOptions.max_states or "
                       "lower the field caps");
          local = wo.local.intern(st, key, hash, [](std::uint32_t, const State&) {});
        }
        return kProvisional | local;
      };
      try {
        for (;;) {
          const std::uint64_t p0 = cursor.fetch_add(kPairChunk, std::memory_order_relaxed);
          if (p0 >= end) return;
          const std::uint64_t p1 = std::min(end, p0 + kPairChunk);
          for (std::uint64_t p = p0; p < p1; ++p) {
            const auto [r, s] = decode_pair(p);
            core_.explore_into(r, s, cell, resolve);
            cells[p - begin] = PairCell{w, static_cast<std::uint32_t>(wo.entries.size()),
                                        static_cast<std::uint32_t>(cell.size())};
            wo.entries.insert(wo.entries.end(), cell.begin(), cell.end());
          }
        }
      } catch (...) {
        cursor.store(end, std::memory_order_relaxed);  // drain remaining work
        throw;  // TaskGroup::wait rethrows the first worker's failure
      }
    };

    Executor::TaskGroup group;
    for (unsigned w = 0; w < workers; ++w) {
      group.run([&worker_body, w] { worker_body(w); });
    }
    group.wait();  // the calling thread help-runs the submitted bodies

    // Serial merge in pair order, scanning each cell's entries receiver
    // then sender: a provisional (worker, local id) interns globally at its
    // first reference, memoized per worker.  That is the order in which
    // the sequential sweep first meets each new state, so ids, names,
    // transition order and rates all come out identical to it.
    constexpr std::uint32_t kUnresolved = 0xFFFFFFFFu;
    std::vector<std::vector<std::uint32_t>> resolved(workers);
    for (unsigned w = 0; w < workers; ++w) {
      resolved[w].assign(outs[w].local.size(), kUnresolved);
    }
    for (std::uint64_t p = begin; p < end; ++p) {
      const auto [r, s] = decode_pair(p);
      const PairCell& pc = cells[p - begin];
      const WorkerOut& wo = outs[pc.worker];
      const auto global_id = [&](std::uint32_t id) {
        if ((id & kProvisional) == 0) return id;
        std::uint32_t& memo = resolved[pc.worker][id & ~kProvisional];
        if (memo == kUnresolved) memo = core_.intern(wo.local[id & ~kProvisional]);
        return memo;
      };
      double total = 0.0;
      for (std::uint32_t i = 0; i < pc.len; ++i) {
        const CellEntry& e = wo.entries[pc.offset + i];
        const std::uint32_t out_receiver = global_id(e.out_receiver);
        const std::uint32_t out_sender = global_id(e.out_sender);
        core_.mutable_spec().add(r, s, out_receiver, out_sender, e.rate);
        total += e.rate;
      }
      core_.spec().require_pair_rate(r, s, total);
      require_transition_room();
    }
  }

  CompilerCore<P> core_;
};

/// One-call path for the common case: wrap a BoundableProtocol at the given
/// geometric cap and compile it, with enumeration and simulation caps tied.
/// `threads` = 0 compiles on all cores (same result at any thread count).
template <BoundableProtocol P>
CompileResult<Bounded<P>> compile_bounded(P base, std::uint32_t geometric_cap,
                                          CompileOptions opts = {}, unsigned threads = 0) {
  Bounded<P> bounded(std::move(base), geometric_cap);
  return ProtocolCompiler<Bounded<P>>(std::move(bounded), geometric_cap, opts)
      .compile(threads);
}

}  // namespace pops
