// Batched count-based simulator: Θ(√n) interactions per RNG epoch.
//
// The paper measures protocols in parallel time (= interactions / n), so its
// convergence figures at n = 10⁸–10¹² need Θ(n polylog n) interactions per
// trial — too many to simulate one at a time.  This simulator
// uses the batching technique of ppsim (Doty–Severson, CMSB 2021; cf.
// Berenbrink et al., "Simulating Population Protocols in Sub-Constant Time
// per Interaction"): between two interactions that touch the same agent,
// interactions commute, so the chain can be advanced in collision-free
// batches whose length follows the birthday distribution — expected
// Θ(√n) interactions per epoch — with each batch applied by count arithmetic.
//
// One epoch, exactly distribution-preserving w.r.t. the sequential chain:
//   1. Sample L = index of the first interaction that reuses an agent
//      ("collision"), via inversion of the birthday survival function
//      P(L > t) = (n)_{2t} / (n(n-1))^t  (binary search, O(log n) evals).
//   2. The 2(L−1) agents of the collision-free prefix are a uniform sample
//      without replacement from the configuration.  Two samplers, chosen
//      per epoch from n and the occupancy alone:
//        * batch — draw their *joint* state multiset with one multivariate
//          hypergeometric pass, split it into receiver/sender multisets
//          (the receivers are a uniform t-subset of the 2t agents, so the
//          receiver class counts are again multivariate hypergeometric —
//          one fused draw replaces the former two full-configuration
//          draws), pair them by a uniform bipartite matching, and apply
//          every transition by count arithmetic (randomized transitions
//          split by binomial draws).  O(occupied) univariate draws plus
//          O(t) or O(occ²) pairing.
//        * sequential — when the expected batch √(πn/8) is short next to
//          the occupancy (< 3·occupied classes), O(occupied) hypergeometric
//          draws cost more than the O(t) interactions they serve: draw the
//          2t agents one at a time (uniform slot over prefix sums of the
//          occupied classes, redrawn if it lands on an agent already in the
//          batch) and fire each pair as a single interaction.  A guide
//          table over the prefix sums (indexed search, Chen & Asau 1974)
//          finds each slot's class in expected O(1): O(occupied) per epoch
//          to build the sums and the table, plus expected O(1) per draw.
//   3. Resolve the single colliding interaction exactly: the repeated agent
//      is uniform among the 2(L−1) touched agents (whose post-batch states
//      are known as a multiset), its partner uniform among touched/untouched
//      pools with the exact conditional weights.
//
// Epochs are serial: every stage is a chain of exact draws on the calling
// thread, drawing from counter-based RNG substreams keyed (seed, epoch,
// stream) — sim/rng.hpp `substream_seed` — so a run is per-seed
// reproducible and never touches the executor.  An epoch of Θ(√n)
// interactions over a few hundred occupied classes is too small to split
// across threads profitably; parallelism comes from fanning trials out
// (harness/trials.hpp).
//
// Every per-epoch structure is sparse in the *occupied* state classes — a
// persistent occupied-class list (compacted once per epoch) drives the
// hypergeometric pass, touched-class lists drive the merges, and scratch is
// cleared by id list rather than by O(S) fills — so a 10⁴–10⁵-state compiled
// spec pays for the classes it populates, not for S.  Dispatch goes through
// one `DispatchTable` (sim/dispatch.hpp) in both modes: an eager spec is
// loaded into a table the simulator owns, and with a `JitCompiler` source
// the simulator steps the JIT's table, compiling each pair the first time
// the lookup finds it absent and growing the count vectors as states intern.
//
// Truncating an epoch after a fixed number of interactions is also exact —
// whether a prefix is collision-free depends only on agent identities, which
// are independent of agent states — so `steps(k)` advances exactly k
// interactions, as on `AgentSimulation`; where parallel-time stepping
// (sim/stepping.hpp) cuts `steps` calls is part of a seed's output.
// `AgentSimulation<TableProtocol>` (sim/table_protocol.hpp) steps the same
// dispatch cells agent by agent and is the exact reference the chi-square
// suites compare this engine against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/finite_spec.hpp"
#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "sim/shared_dispatch.hpp"
#include "sim/stepping.hpp"
#include "stats/blocked.hpp"
#include "stats/discrete.hpp"

namespace pops {

class BatchedCountSimulation {
 public:
  /// Eager mode: builds the dispatch table from `spec`, which need not
  /// outlive the simulator; only the state names are kept, for the
  /// name-keyed `set_count` and `count`.
  BatchedCountSimulation(const FiniteSpec& spec, std::uint64_t seed)
      : names_(&own_names_), master_seed_(seed),
        owned_table_(std::make_unique<const DispatchTable>(spec)) {
    for (std::uint32_t id = 0; id < spec.num_states(); ++id) own_names_.add_state(spec.name(id));
    table_ = owned_table_.get();
    init_scratch();
  }

  /// Lazy/JIT mode: pairs compile on first contact; `jit` must outlive the
  /// simulator (it owns the growing table and the interned state names).
  /// Multiple simulators on different threads may share one `jit` source —
  /// its table is lock-free to read and compile_pair is sharded.
  BatchedCountSimulation(JitCompiler& jit, std::uint64_t seed)
      : names_(&jit.spec()), master_seed_(seed), table_(&jit.table()), jit_(&jit) {
    init_scratch();
  }

  // names_ points into own storage in eager mode; copies would dangle.
  BatchedCountSimulation(const BatchedCountSimulation&) = delete;
  BatchedCountSimulation& operator=(const BatchedCountSimulation&) = delete;

  /// Observed epoch counters: epochs run and the batch sampler each took
  /// (an epoch runs exactly one, so the three paths sum to `epochs`).
  struct Stats {
    std::uint64_t epochs = 0;
    std::uint64_t sequential = 0;  ///< agent-by-agent short-epoch sampler
    std::uint64_t shuffle = 0;     ///< joint draw + shuffle pairing
    std::uint64_t dense = 0;       ///< joint draw + contingency-table pairing
    /// Sequential-sampler slots that landed on an agent already drawn in
    /// the same batch and were drawn again.
    std::uint64_t redraws = 0;
  };

  /// Reset to an empty configuration with a fresh seed, reusing the compiled
  /// dispatch table.  For multi-trial experiments on compiled specs the
  /// table build (millions of entries — or, lazily, the JIT warm-up) dwarfs
  /// a trial, so trials reseed one simulator instead of constructing one each.
  void reset(std::uint64_t seed) {
    master_seed_ = seed;
    epoch_index_ = 0;
    sync_states();
    for (const std::uint32_t i : occupied_) {
      counts_[i] = 0;
      in_occupied_[i] = 0;
    }
    occupied_.clear();
    total_ = 0;
    interactions_ = 0;
    stats_ = Stats{};
  }

  /// Set the count of a state — before stepping or between steps, which
  /// may change the population size; the next epoch reads the new
  /// configuration.
  void set_count(const std::string& state, std::uint64_t count) {
    set_count(names_->id(state), count);
  }
  void set_count(std::uint32_t state, std::uint64_t count) {
    sync_states();
    const std::uint64_t rest = total_ - counts_.at(state);
    POPS_REQUIRE(count < kMaxPopulation - rest, "population size must stay below 2^63");
    total_ = rest + count;
    counts_[state] = count;
    if (count != 0 && !in_occupied_[state]) {
      in_occupied_[state] = 1;
      occupied_.push_back(state);
    }
  }

  std::uint64_t count(const std::string& state) const {
    return names_->has_state(state) ? count(names_->id(state)) : 0;
  }
  std::uint64_t count(std::uint32_t state) const {
    return state < counts_.size() ? counts_[state] : 0;
  }
  std::uint64_t population_size() const { return total_; }
  std::uint64_t interactions() const { return interactions_; }

  double time() const { return parallel_time(*this); }

  /// One interaction (an epoch truncated to length 1 — still exact).
  void step() { steps(1); }

  /// Advance exactly `k` interactions; steps(0) is a no-op.
  void steps(std::uint64_t k) {
    if (k == 0) return;
    POPS_REQUIRE(total_ >= 2, "population too small to interact");
    // Another simulator sharing our JIT source may have interned states
    // since we last ran: its compiled cells are `present` (so our lookup
    // fallback won't fire) yet can output ids beyond our scratch vectors.
    sync_states();
    while (k > 0) k -= epoch(k);
  }

  /// Parallel-time stepping (sim/stepping.hpp).
  void advance_time(double dt) { pops::advance_time(*this, dt); }
  template <typename Pred>
  double run_until(Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
    return pops::run_until(*this, std::forward<Pred>(done), check_dt, max_time);
  }

  /// Snapshot of all counts, indexed by state id.
  std::vector<std::uint64_t> counts() const { return counts_; }

  /// Epoch counters since construction or the last reset().
  const Stats& stats() const { return stats_; }

 private:
  // --------------------------------------------------- epoch substreams ----
  // Per-epoch stream indices (SubstreamSeeder keyed (seed, epoch, i)):
  //   0   — root: collision search, dense pairing, collision resolution
  //   1   — fused joint draw and receiver split, or the whole sequential
  //         batch (agent draws and randomized-cell picks)
  //   256 — shuffle pairing (sender shuffle + transition binomials)
  static constexpr std::uint64_t kStreamRoot = 0;
  static constexpr std::uint64_t kStreamJoint = 1;
  static constexpr std::uint64_t kStreamShuffle = 256;

  // ------------------------------------------------------------ epochs ----

  /// Run one epoch, bounded by `budget` interactions; returns how many
  /// interactions were executed (>= 1).  Each epoch owns the counter-based
  /// substream family keyed (master_seed_, epoch_index_, stream).
  std::uint64_t epoch(std::uint64_t budget) {
    const std::uint64_t n = total_;
    const std::uint64_t tmax = n / 2;  // longest possible collision-free run
    const SubstreamSeeder seeder(master_seed_, epoch_index_++);
    Rng root = seeder.stream(kStreamRoot);
    ++stats_.epochs;
    if (n != survival_n_) cache_survival_constants(n);
    if (budget == 1) {  // a single interaction is always a collision-free prefix
      run_batch(1, /*keep_split=*/false, seeder, root);
      return 1;
    }
    const double u = root.uniform_double();
    if (u <= 0.0) {  // measure-zero guard: collision arbitrarily late
      const std::uint64_t t = std::min(budget, tmax);
      run_batch(t, /*keep_split=*/false, seeder, root);
      return t;
    }
    const double log_u = std::log(u);
    if (budget <= tmax && log_survival(budget) >= log_u) {
      // First collision falls beyond the budget: the prefix we need is
      // collision-free, and truncation is exact (see header comment).
      run_batch(budget, /*keep_split=*/false, seeder, root);
      return budget;
    }
    // Binary search the smallest t with P(L > t) < u; the collision is
    // interaction t, preceded by t-1 collision-free interactions.
    std::uint64_t lo = 1, hi = std::min(budget, tmax + 1);
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (log_survival(mid) < log_u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    // P(L > 1) = 1, so lo >= 2 up to floating-point noise in log_survival;
    // clamp so the batch is never empty (budget >= 2 here, so batch + 1 fits).
    const std::uint64_t batch = std::max<std::uint64_t>(lo, 2) - 1;
    run_batch(batch, /*keep_split=*/true, seeder, root);
    resolve_collision(batch, root);
    return batch + 1;
  }

  /// log P(L > t): probability that t interactions in a row reuse no agent,
  /// i.e. the falling factorial (n)_{2t} / (n(n-1))^t.  For large n this is
  /// evaluated by a truncated log1p series with closed-form power sums (the
  /// log-factorial difference would cancel catastrophically); for small n,
  /// by `log_factorial` (stats/discrete.hpp) — not libm's lgamma, which
  /// writes the global `signgam` and so races when trials fan out over
  /// threads on one shared JIT table.  The terms that depend on n alone are
  /// cached per population size (`cache_survival_constants`), not
  /// recomputed per binary-search probe.  On the small-n branch each value
  /// depends on t and n alone, and successive epochs probe mostly the same
  /// t, so it is memoized per n in `survival_memo_` (NaN = not yet
  /// computed): each entry is computed once by the unchanged expression.
  double log_survival(std::uint64_t t) {
    const std::uint64_t n = total_;
    if (2 * t > n) return -std::numeric_limits<double>::infinity();
    const double dn = static_cast<double>(n);
    const double dt = static_cast<double>(t);
    if (n < kSurvivalSeriesN) {
      double& value = survival_memo_[t];
      if (std::isnan(value)) {
        value = log_factorial_n_ - detail::log_factorial(dn - 2.0 * dt) - dt * log_pair_n_;
      }
      return value;
    }
    // sum_{j=0}^{2t-1} log1p(-j/n) - t*log1p(-1/n), with
    // sum log1p(-j/n) ~ -(S1/n + S2/(2n^2) + S3/(3n^3) + S4/(4n^4)).
    // Truncation error is negligible where the value can affect the
    // comparison against log(u) >= log(2^-53) ~ -36.7.
    const double m = 2.0 * dt;
    const double s1 = m * (m - 1.0) / 2.0;
    const double s2 = (m - 1.0) * m * (2.0 * m - 1.0) / 6.0;
    const double s3 = s1 * s1;
    const double s4 = s2 * (3.0 * m * m - 3.0 * m - 1.0) / 5.0;
    const double series = -(s1 / dn + s2 / (2.0 * dn * dn) +
                            s3 / (3.0 * dn * dn * dn) +
                            s4 / (4.0 * dn * dn * dn * dn));
    return series - dt * log1p_inv_n_;
  }

  /// Precompute log_survival's n-only terms for the branch `n` takes, and
  /// on the small-n branch empty its memo of n/2 + 1 entries (t ≤ n/2); the
  /// expressions are unchanged, so every probe's value is bit-identical.
  void cache_survival_constants(std::uint64_t n) {
    const double dn = static_cast<double>(n);
    survival_n_ = n;
    if (n < kSurvivalSeriesN) {
      log_factorial_n_ = detail::log_factorial(dn);
      log_pair_n_ = std::log(dn) + std::log(dn - 1.0);
      survival_memo_.assign(n / 2 + 1, std::numeric_limits<double>::quiet_NaN());
    } else {
      log1p_inv_n_ = std::log1p(-1.0 / dn);
    }
  }

  // ------------------------------------------------------- batch moves ----

  /// Sample and apply `t` collision-free interactions.
  /// If `keep_split` is set, the configuration is left split across
  /// `counts_` (untouched agents) and `touched_` (post-batch states of the
  /// 2t touched agents) for collision resolution; otherwise it is merged.
  void run_batch(std::uint64_t t, bool keep_split, const SubstreamSeeder& seeder,
                 Rng& root) {
    compact_occupied();
    // Three exact samplers for the batch's uniform pairing of 2t distinct
    // agents, with different cost profiles:
    //   * sequential — draw the agents one by one and fire each pair:
    //     expected O(t) plus one O(occ) prefix-sum and guide-table pass.
    //     Wins when the expected batch is short next to the occupancy
    //     (√(πn/8) < kSequentialOccupancy · occ; the rule reads n and
    //     occupancy only, never the realized t), where the joint draw's
    //     O(occ) univariate hypergeometric draws dominate (small n, many
    //     classes).
    //   * dense — joint draw, then a sequentially-sampled contingency
    //     table, one hypergeometric per (receiver class, sender class):
    //     O(occ_r · occ_s) draws.  Wins when the batch is huge relative to
    //     the occupied grid (early dynamics, n ≳ 10^11).
    //   * shuffle — joint draw, then expand the sender multiset into t
    //     slots, shuffle, and let receiver classes consume slots in order:
    //     a uniform permutation of the sender multiset against receiver
    //     slots is exactly a uniform matching.  O(t) with tiny constants;
    //     wins when the occupied grid is not tiny relative to the batch — a
    //     slot write costs ~1/8 of a rejection draw, so the dense scan only
    //     wins when occ_r · occ_s ≪ t (few huge classes at n ≳ 10¹¹).
    // The shuffle buffer is capped so sub-√n epochs never allocate
    // unboundedly at n = 10¹²⁺; past the cap the dense scan takes over.
    const double occ = static_cast<double>(occupied_.size());
    if (std::numbers::pi * static_cast<double>(total_) / 8.0 <
        kSequentialOccupancy * kSequentialOccupancy * occ * occ) {
      Rng rng = seeder.stream(kStreamJoint);
      pair_sequential(t, rng);
      ++stats_.sequential;
    } else {
      draw_joint(t, seeder);
      std::uint64_t occ_r = 0, occ_s = 0;
      for (const std::uint32_t j : joint_ids_) {
        occ_r += recv_[j] != 0 ? 1 : 0;
        occ_s += send_[j] != 0 ? 1 : 0;
      }
      if (occ_r * occ_s * 8 < t || t > kMaxShuffleSlots) {
        pair_dense(t, root);
        ++stats_.dense;
      } else {
        pair_shuffle(t, seeder);
        ++stats_.shuffle;
      }
      for (const std::uint32_t j : joint_ids_) {
        joint_[j] = 0;
        recv_[j] = 0;
        send_[j] = 0;
      }
      joint_ids_.clear();
    }
    interactions_ += t;
    if (!keep_split) merge_touched();
  }

  /// Short-epoch sampler.  Conditioned on the prefix being collision-free,
  /// its 2t agents are a uniform ordered sequence of distinct agents and
  /// every input state is a pre-batch state, so drawing the agents one at a
  /// time without replacement (receiver, then sender, per interaction) and
  /// firing each pair as a single interaction is exact.  A draw is a
  /// uniform slot over the prefix sums of the occupied classes; the first
  /// `joint_[i]` agents of class i stand for those already in the batch,
  /// and a slot landing on one is redrawn.  The guide table splits the
  /// slots into at most kGuideBuckets · occupied buckets of 2^guide_shift_
  /// slots each; `guide_[b]` is the first class whose prefix sum exceeds
  /// bucket b's first slot, so a draw starts its scan there and lands on
  /// exactly the class `upper_bound` over `cum_` would return, after an
  /// expected O(1) steps.  Classes are addressed in
  /// occupied-list order, never by id value, so JIT runs stay invariant by
  /// state label.  `joint_`/`joint_ids_` hold the drawn counts and are
  /// subtracted from `counts_` at the end, leaving the untouched agents
  /// there as the collision resolution expects.
  void pair_sequential(std::uint64_t t, Rng& rng) {
    cum_.resize(occupied_.size());
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < occupied_.size(); ++k) {
      acc += counts_[occupied_[k]];
      cum_[k] = acc;
    }
    guide_shift_ = 0;
    while (((acc - 1) >> guide_shift_) >= kGuideBuckets * occupied_.size()) ++guide_shift_;
    guide_.resize(((acc - 1) >> guide_shift_) + 1);
    std::uint32_t first = 0;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
      while (cum_[first] <= std::uint64_t{b} << guide_shift_) ++first;
      guide_[b] = first;
    }
    for (std::uint64_t m = 0; m < t; ++m) {
      const std::uint32_t r = draw_fresh(rng);
      const std::uint32_t s = draw_fresh(rng);
      const auto [out_r, out_s] = resolve_transition(r, s, rng);
      touch(out_r, 1);
      touch(out_s, 1);
    }
    for (const std::uint32_t i : joint_ids_) {
      counts_[i] -= joint_[i];
      joint_[i] = 0;
    }
    joint_ids_.clear();
  }

  /// One uniform agent not yet drawn in this sequential batch; returns its
  /// class and counts it into `joint_`.
  std::uint32_t draw_fresh(Rng& rng) {
    for (;;) {
      const std::uint64_t slot = rng.below(total_);
      std::uint32_t k = guide_[slot >> guide_shift_];
      while (cum_[k] <= slot) ++k;
      const std::uint32_t i = occupied_[k];
      const std::uint64_t offset = slot - (k == 0 ? 0 : cum_[k - 1]);
      if (offset < joint_[i]) {  // already in this batch
        ++stats_.redraws;
        continue;
      }
      if (joint_[i]++ == 0) joint_ids_.push_back(i);
      return i;
    }
  }

  /// The fused batch draw.  Drawing t receivers then t senders without
  /// replacement is distribution-identical to drawing the 2t batch agents in
  /// one pass and then marking a uniform t-subset of them as receivers: the
  /// joint class counts are one multivariate hypergeometric over the
  /// occupied classes of the configuration, and conditioned on them the
  /// receiver class counts are a multivariate hypergeometric of the (much
  /// smaller, mostly small-count) joint multiset.  The former two
  /// full-configuration passes collapse into one, and the occupied-class
  /// list persists across epochs — only compaction of classes that emptied
  /// touches it.
  void draw_joint(std::uint64_t t, const SubstreamSeeder& seeder) {
    joint_ids_.clear();
    Rng rng = seeder.stream(kStreamJoint);
    std::uint64_t remaining_total = total_;
    std::uint64_t remaining = 2 * t;
    for (const std::uint32_t i : occupied_) {
      if (remaining == 0) break;
      const std::uint64_t c = counts_[i];
      const std::uint64_t d = hypergeometric(rng, remaining_total, c, remaining);
      remaining_total -= c;
      if (d != 0) {
        joint_[i] = d;
        joint_ids_.push_back(i);
        counts_[i] = c - d;
        remaining -= d;
      }
    }
    POPS_REQUIRE(remaining == 0, "batch draw exceeded population");
    // Split: the receivers are a uniform t-subset of the 2t drawn agents.
    std::uint64_t pool = 2 * t;
    std::uint64_t need = t;
    for (const std::uint32_t i : joint_ids_) {
      const std::uint64_t r = need == 0 ? 0 : hypergeometric(rng, pool, joint_[i], need);
      recv_[i] = r;
      send_[i] = joint_[i] - r;
      pool -= joint_[i];
      need -= r;
    }
  }

  /// Drop occupied-list entries whose class emptied (agents drawn out and
  /// never returned).  O(occupancy), once per epoch; the list never holds
  /// duplicates, so multivariate passes see each class exactly once.
  void compact_occupied() {
    std::size_t w = 0;
    for (const std::uint32_t i : occupied_) {
      if (counts_[i] != 0) {
        occupied_[w++] = i;
      } else {
        in_occupied_[i] = 0;
      }
    }
    occupied_.resize(w);
  }

  /// Dense contingency-table pairing: hypergeometric share per cell, on the
  /// root stream.  It runs precisely when the occupied grid is tiny relative
  /// to the batch, where per-epoch cost is O(occ²), not O(t).
  void pair_dense(std::uint64_t t, Rng& rng) {
    std::uint64_t send_total = t;
    for (const std::uint32_t i : joint_ids_) {
      std::uint64_t need = recv_[i];
      if (need == 0) continue;
      std::uint64_t pool = send_total;
      for (const std::uint32_t j : joint_ids_) {
        if (need == 0) break;
        const std::uint64_t sj = send_[j];
        if (sj == 0) continue;
        const std::uint64_t d = hypergeometric(rng, pool, sj, need);
        pool -= sj;
        if (d > 0) {
          send_[j] -= d;
          need -= d;
          send_total -= d;
          apply_cell(i, j, d, rng);
        }
      }
    }
  }

  /// Shuffle pairing: fill the slot buffer with a uniform shuffle of the
  /// sender multiset, then let each receiver class consume its slots in
  /// order — accumulating per-cell counts so randomized cells still split in
  /// bulk — all on the shuffle stream.
  void pair_shuffle(std::uint64_t t, const SubstreamSeeder& seeder) {
    sender_ms_.ids = joint_ids_;
    sender_ms_.counts.clear();
    for (const std::uint32_t i : joint_ids_) sender_ms_.counts.push_back(send_[i]);
    if (sender_slots_.size() < t) sender_slots_.resize(t);
    Rng rng = seeder.stream(kStreamShuffle);
    block_shuffle_fill(rng, sender_ms_, sender_slots_.data(), t);
    std::uint64_t pos = 0;
    for (const std::uint32_t i : joint_ids_) {
      std::uint64_t need = recv_[i];
      if (need == 0) continue;
      cell_touched_.clear();
      while (need-- > 0) {
        const std::uint32_t j = sender_slots_[pos++];
        if (cell_accum_[j]++ == 0) cell_touched_.push_back(j);
      }
      for (const std::uint32_t j : cell_touched_) {
        apply_cell(i, j, cell_accum_[j], rng);
        cell_accum_[j] = 0;
      }
    }
  }

  /// Apply `d` simultaneous interactions with input pair (i, j), adding the
  /// output states to the touched multiset.  Randomized cells split `d`
  /// across their transitions (plus the residual null) by binomial draws
  /// from `rng`.
  void apply_cell(std::uint32_t i, std::uint32_t j, std::uint64_t d, Rng& rng) {
    const DispatchTable::Cell cell = lookup(i, j);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        touch(i, d);
        touch(j, d);
        return;
      case DispatchTable::CellKind::kDeterministic: {
        const auto& e = *cell.begin;
        touch(e.out_receiver, d);
        touch(e.out_sender, d);
        return;
      }
      case DispatchTable::CellKind::kRandomized: {
        std::uint64_t rem = d;
        double rest = 1.0;
        for (const auto* e = cell.begin; e != cell.end && rem > 0; ++e) {
          // A full-mass cell has no null residue: its last entry absorbs the
          // floating-point sliver the subtraction chain leaves in `rest`,
          // mirroring DispatchTable::pick's clamp on the single-draw path.
          const bool clamp_last = cell.clamp && e + 1 == cell.end;
          const double p =
              clamp_last ? 1.0 : std::min(1.0, std::max(0.0, e->rate / rest));
          const std::uint64_t k = binomial(rng, rem, p);
          touch(e->out_receiver, k);
          touch(e->out_sender, k);
          rem -= k;
          rest -= e->rate;
        }
        touch(i, rem);  // residual mass: null transitions
        touch(j, rem);
        return;
      }
    }
  }

  /// Dispatch lookup with the JIT fallback: an unregistered pair under a
  /// JIT source is compiled in place (possibly interning new states) and
  /// looked up again.  Compilation consumes no simulation randomness, so
  /// JIT runs are deterministic under a fixed seed.  State growth is synced
  /// after our own compiles; cells compiled by *other* threads sharing the
  /// JIT source are caught by `touch`'s guard.
  DispatchTable::Cell lookup(std::uint32_t receiver, std::uint32_t sender) {
    DispatchTable::Cell cell = table_->find(receiver, sender);
    if (!cell.present && jit_ != nullptr) {
      jit_->compile_pair(receiver, sender);
      sync_states();
      cell = table_->find(receiver, sender);
    }
    return cell;
  }

  void touch(std::uint32_t state, std::uint64_t d) {
    if (d == 0) return;
    // Another simulator thread sharing our JIT source may have interned
    // `state` after our last sync; grow the scratch mid-epoch (exact — the
    // new classes simply hold zero counts).
    if (state >= touched_.size()) [[unlikely]] sync_states();
    if (touched_[state] == 0) touched_ids_.push_back(state);
    touched_[state] += d;
  }

  void merge_touched() {
    for (const std::uint32_t i : touched_ids_) {
      const std::uint64_t v = touched_[i];
      touched_[i] = 0;
      if (v != 0) {
        counts_[i] += v;
        if (!in_occupied_[i]) {
          in_occupied_[i] = 1;
          occupied_.push_back(i);
        }
      }
    }
    touched_ids_.clear();
  }

  // ------------------------------------------------------- collisions ----

  /// Execute the colliding interaction exactly.  After a kept-split batch of
  /// `batch` interactions, `touched_` holds the 2*batch post-batch states and
  /// `counts_` the untouched agents.  Conditioned on being the first
  /// collision, the ordered pair is uniform over ordered distinct pairs that
  /// are not untouched-untouched; with T = 2*batch touched and U untouched
  /// agents the three cases have weights T·U, U·T, T·(T−1) — T divides out,
  /// leaving U : U : T−1.
  void resolve_collision(std::uint64_t batch, Rng& rng) {
    const std::uint64_t touched_total = 2 * batch;
    const std::uint64_t untouched_total = total_ - touched_total;
    std::uint64_t t_pool = touched_total;
    std::uint64_t u_pool = untouched_total;
    const std::uint64_t x = rng.below(2 * untouched_total + touched_total - 1);
    std::uint32_t r_state, s_state;
    if (x < untouched_total) {  // receiver touched, sender untouched
      r_state = draw_one(touched_ids_, touched_, t_pool, rng);
      s_state = draw_one(occupied_, counts_, u_pool, rng);
    } else if (x < 2 * untouched_total) {  // receiver untouched, sender touched
      r_state = draw_one(occupied_, counts_, u_pool, rng);
      s_state = draw_one(touched_ids_, touched_, t_pool, rng);
    } else {  // both touched (two distinct touched agents)
      r_state = draw_one(touched_ids_, touched_, t_pool, rng);
      s_state = draw_one(touched_ids_, touched_, t_pool, rng);
    }
    const auto [out_r, out_s] = resolve_transition(r_state, s_state, rng);
    touch(out_r, 1);
    touch(out_s, 1);
    ++interactions_;
    merge_touched();
  }

  /// Remove and return one uniform agent of the `pool_total` that `count`
  /// holds over the classes in `ids` (touched, or untouched over occupied).
  static std::uint32_t draw_one(const std::vector<std::uint32_t>& ids,
                                std::vector<std::uint64_t>& count, std::uint64_t& pool_total,
                                Rng& rng) {
    std::uint64_t slot = rng.below(pool_total);
    for (const std::uint32_t i : ids) {
      const std::uint64_t c = count[i];
      if (slot < c) {
        --count[i];
        --pool_total;
        return i;
      }
      slot -= c;
    }
    POPS_REQUIRE(false, "corrupt multiset in collision draw");
    return 0;  // unreachable
  }

  /// Outcome of a single (receiver, sender) interaction, consuming the rate
  /// draw only for randomized cells.
  std::pair<std::uint32_t, std::uint32_t> resolve_transition(std::uint32_t r,
                                                             std::uint32_t s,
                                                             Rng& rng) {
    const DispatchTable::Cell cell = lookup(r, s);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        return {r, s};
      case DispatchTable::CellKind::kDeterministic: {
        const auto& e = *cell.begin;
        return {e.out_receiver, e.out_sender};
      }
      case DispatchTable::CellKind::kRandomized: {
        const auto* e = DispatchTable::pick(cell, rng.uniform_double());
        if (e != nullptr) return {e->out_receiver, e->out_sender};
        return {r, s};  // residual: null transition
      }
    }
    return {r, s};
  }

  // ------------------------------------------------------ state growth ----

  void init_scratch() {
    sync_states();
    occupied_.reserve(counts_.size());
    joint_ids_.reserve(counts_.size());
    touched_ids_.reserve(counts_.size());
  }

  void sync_states() {
    const std::uint32_t s = table_->num_states();
    if (s == counts_.size()) return;
    counts_.resize(s, 0);
    touched_.resize(s, 0);
    recv_.resize(s, 0);
    send_.resize(s, 0);
    joint_.resize(s, 0);
    cell_accum_.resize(s, 0);
    in_occupied_.resize(s, 0);
  }

  /// Shuffle-slot ceiling: above this, fall back to the contingency-table
  /// pairing rather than materializing an O(√n) slot buffer at n = 10¹²⁺.
  static constexpr std::uint64_t kMaxShuffleSlots = std::uint64_t{1} << 22;

  /// Short-epoch rule: sample agent by agent when the expected batch
  /// √(πn/8) is below this multiple of the occupied-class count (compared
  /// squared).  Chosen by a sweep on c8 at n = 5·10³ (1, 2, 3, 6 tried;
  /// 3 fastest).
  static constexpr double kSequentialOccupancy = 3.0;

  /// log_survival switches from log-factorials to the log1p series here.
  static constexpr std::uint64_t kSurvivalSeriesN = 1000000;

  /// pair_sequential's guide table has at most this many buckets per
  /// occupied class.
  static constexpr std::uint64_t kGuideBuckets = 2;

  FiniteSpec own_names_;         ///< eager mode: the spec's states, no transitions
  const FiniteSpec* names_;      ///< own_names_, or the JIT's growing registry
  std::uint64_t master_seed_;    ///< every epoch substream derives from this
  std::uint64_t epoch_index_ = 0;
  std::unique_ptr<const DispatchTable> owned_table_;  ///< eager mode only
  const DispatchTable* table_ = nullptr;
  JitCompiler* jit_ = nullptr;                         ///< lazy mode only
  std::vector<std::uint64_t> counts_;  ///< configuration vector
  std::uint64_t total_ = 0;
  std::uint64_t interactions_ = 0;
  Stats stats_;
  // log_survival's n-only terms, valid for population size survival_n_.
  std::uint64_t survival_n_ = 0;
  double log_factorial_n_ = 0.0, log_pair_n_ = 0.0, log1p_inv_n_ = 0.0;
  std::vector<double> survival_memo_;  ///< log_survival(t) for n < kSurvivalSeriesN
  // Per-epoch scratch, sparse in the occupied classes (hot path allocates
  // nothing and never walks the full state range).
  std::vector<std::uint64_t> touched_, recv_, send_, joint_, cell_accum_;
  std::vector<std::uint8_t> in_occupied_;
  std::vector<std::uint32_t> occupied_, joint_ids_, touched_ids_, cell_touched_;
  std::vector<std::uint32_t> sender_slots_;
  std::vector<std::uint64_t> cum_;  ///< pair_sequential's class prefix sums
  std::vector<std::uint32_t> guide_;  ///< first class of each slot bucket
  unsigned guide_shift_ = 0;          ///< log₂ of the slots per bucket
  ClassMultiset sender_ms_;  ///< pair_shuffle's sender multiset (reused)
};

}  // namespace pops
