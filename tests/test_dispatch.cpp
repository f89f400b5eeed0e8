// Tests for the dispatch table (sim/dispatch.hpp): cell classification, the
// pick() residual clamp, the eager build checked cell by cell against a
// brute-force grouping of the spec (crowded rows and oversize cells
// included), and per-seed golden trajectories of both count simulators on
// an eagerly compiled spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "proto/partition.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/count_simulation.hpp"
#include "sim/dispatch.hpp"

namespace pops {
namespace {

using Cell = DispatchTable::Cell;
using Kind = DispatchTable::CellKind;

// ------------------------------------------------------- classification ----

TEST(DispatchTable, ClassifiesCellsAndReportsPresence) {
  FiniteSpec spec;
  spec.add("a", "b", "c", "d");             // deterministic
  spec.add("b", "a", "a", "a", 0.25);       // randomized with residual
  spec.state("e");                          // isolated state: all cells absent
  const DispatchTable table(spec);
  EXPECT_EQ(table.num_states(), 5u);

  const Cell det = table.find(spec.id("a"), spec.id("b"));
  EXPECT_TRUE(det.present);
  EXPECT_EQ(det.kind, Kind::kDeterministic);
  EXPECT_EQ(det.begin->out_receiver, spec.id("c"));
  EXPECT_EQ(det.begin->out_sender, spec.id("d"));

  const Cell rnd = table.find(spec.id("b"), spec.id("a"));
  EXPECT_EQ(rnd.kind, Kind::kRandomized);
  EXPECT_FALSE(rnd.clamp);  // 0.25 leaves real null mass

  const Cell absent = table.find(spec.id("e"), spec.id("a"));
  EXPECT_FALSE(absent.present);
  EXPECT_EQ(absent.kind, Kind::kNull);
}

// ------------------------------------------------------------ pick clamp ----

TEST(DispatchTable, PickClampsFullMassCellInsteadOfReturningNull) {
  // Regression: rates summing to 1.0 in floating point, with a rate draw u
  // just below 1 whose sequential subtraction chain rounds upward and falls
  // off the end of the entry list.  Found by direct search; before the
  // clamp, pick() returned the null transition for this cell even though it
  // has no residual null mass.
  const std::vector<double> rates = {
      0.051088007354679013, 0.03661847248889874,  0.10992766403617861,
      0.046248231158573939, 0.013880991676881331, 0.15335111262106607,
      0.117647972435756,    0.12071478941201877,  0.25415695061439203,
      0.096365808201555547};
  double total = 0.0;
  for (const double r : rates) total += r;
  ASSERT_GE(total, 1.0) << "pattern must have no residual mass";

  FiniteSpec spec;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    spec.add("a", "a", "o" + std::to_string(i), "a", rates[i]);
  }
  const DispatchTable table(spec);
  const Cell cell = table.find(spec.id("a"), spec.id("a"));
  ASSERT_EQ(cell.kind, Kind::kRandomized);
  EXPECT_TRUE(cell.clamp);

  const double u = 0.99999999999999989;  // the searched fall-through draw
  {  // the unclamped walk really does fall off the end for this (rates, u)
    double v = u;
    bool fell = true;
    for (const double r : rates) {
      if (v < r) {
        fell = false;
        break;
      }
      v -= r;
    }
    ASSERT_TRUE(fell) << "searched instance no longer falls through";
  }
  const auto* e = DispatchTable::pick(cell, u);
  ASSERT_NE(e, nullptr) << "full-mass cell spuriously fired the null transition";
  EXPECT_EQ(e, cell.end - 1) << "stray sliver must clamp to the last entry";

  // Sweep the top of [0, 1): no u may ever fall through on a full-mass cell.
  for (int k = 1; k < 4096; ++k) {
    const double v = 1.0 - static_cast<double>(k) * 1.1102230246251565e-16;
    EXPECT_NE(DispatchTable::pick(cell, v), nullptr) << "u=" << v;
  }
}

TEST(DispatchTable, PickStillReturnsNullForResidualMass) {
  FiniteSpec spec;
  spec.add("a", "a", "b", "a", 0.25);
  spec.add("a", "a", "a", "b", 0.25);
  const DispatchTable table(spec);
  const Cell cell = table.find(spec.id("a"), spec.id("a"));
  EXPECT_FALSE(cell.clamp);
  EXPECT_NE(DispatchTable::pick(cell, 0.1), nullptr);
  EXPECT_NE(DispatchTable::pick(cell, 0.3), nullptr);
  EXPECT_EQ(DispatchTable::pick(cell, 0.75), nullptr);   // residual half
  EXPECT_EQ(DispatchTable::pick(cell, 0.9999), nullptr);
}

// ------------------------------------------------------------ eager build --

/// Every (r, s) cell of the eager table must match a brute-force grouping of
/// `spec.transitions()`: present exactly when the pair has a transition,
/// deterministic exactly for one rate-1 entry, clamped exactly when the
/// rates (summed in spec order) reach 1, and entries in spec order.
void expect_cells_match_spec(const FiniteSpec& spec) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Transition>> groups;
  for (const Transition& t : spec.transitions()) {
    groups[{t.in_receiver, t.in_sender}].push_back(t);
  }
  const DispatchTable table(spec);
  ASSERT_EQ(table.num_states(), spec.num_states());
  EXPECT_EQ(table.num_cells(), groups.size());
  EXPECT_EQ(table.num_entries(), spec.transitions().size());
  for (std::uint32_t r = 0; r < spec.num_states(); ++r) {
    for (std::uint32_t s = 0; s < spec.num_states(); ++s) {
      const Cell c = table.find(r, s);
      const auto it = groups.find({r, s});
      if (it == groups.end()) {
        ASSERT_FALSE(c.present) << r << "," << s;
        ASSERT_EQ(c.kind, Kind::kNull);
        ASSERT_EQ(c.begin, c.end);
        continue;
      }
      const std::vector<Transition>& want = it->second;
      double total = 0.0;
      for (const Transition& t : want) total += t.rate;
      const Kind kind = want.size() == 1 && want[0].rate >= 1.0 ? Kind::kDeterministic
                                                                : Kind::kRandomized;
      ASSERT_TRUE(c.present) << r << "," << s;
      ASSERT_EQ(c.kind, kind) << r << "," << s;
      ASSERT_EQ(c.clamp, total >= 1.0) << r << "," << s;
      ASSERT_EQ(static_cast<std::size_t>(c.end - c.begin), want.size()) << r << "," << s;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(c.begin[i].out_receiver, want[i].out_receiver) << r << "," << s << "#" << i;
        ASSERT_EQ(c.begin[i].out_sender, want[i].out_sender) << r << "," << s << "#" << i;
        ASSERT_EQ(c.begin[i].rate, want[i].rate) << r << "," << s << "#" << i;
      }
    }
  }
}

TEST(DispatchTable, EagerCellsMatchBruteForceGrouping) {
  expect_cells_match_spec(partition_spec());
  const auto proto = log_size_tiny();
  const auto compiled =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  expect_cells_match_spec(compiled.spec);
}

TEST(DispatchTable, EagerCrowdedRowAndOversizeCellMatchBruteForce) {
  // 512 states; row 3 holds 100 cells, listed out of column order and
  // interleaved with other rows, some cells holding several entries;
  // pair (7, 7) holds 5000 entries, more than one 4096-entry arena block.
  const std::uint32_t n = 512;
  FiniteSpec spec;
  for (std::uint32_t i = 0; i < n; ++i) spec.add_unnamed_state();
  for (std::uint32_t j = 0; j < 100; ++j) {
    const std::uint32_t col = (j * 37) % n;
    spec.add(3, col, j, 0, j % 3 == 0 ? 1.0 : 0.25);
    spec.add(5, j, col, 1);
    if (j % 3 == 1) spec.add(3, col, 1, j, 0.5);
  }
  for (std::uint32_t k = 0; k < 5000; ++k) spec.add(7, 7, k % n, (k * 7) % n, 1e-4);
  expect_cells_match_spec(spec);
  const DispatchTable table(spec);
  const Cell big = table.find(7, 7);
  EXPECT_EQ(big.end - big.begin, 5000);
  EXPECT_FALSE(table.find(3, 1).present);  // 1 is not a multiple of 37 mod 512
  EXPECT_FALSE(table.find(4, 0).present);  // rows without transitions stay empty
}

// ------------------------------------------------------------ golden runs --

/// FNV-1a digest of the configuration vector in id order (eager ids are
/// fixed by the compiler, so no name mapping is needed).
std::uint64_t digest_counts(const std::vector<std::uint64_t>& counts) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::uint64_t c : counts) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (c >> (8 * b)) & 0xFF;
      digest *= 0x100000001b3ULL;
    }
  }
  return digest;
}

/// Eagerly compiled log_size_tiny, built once for the golden runs.
const CompileResult<Bounded<LogSizeEstimation>>& tiny_compiled() {
  static const auto compiled = [] {
    const auto proto = log_size_tiny();
    return ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  }();
  return compiled;
}

/// Put `n` agents in the initial state, then take `checkpoints` runs of
/// `steps` interactions, folding the configuration digest after each.
template <typename Sim>
std::uint64_t run_digest(Sim& sim, std::uint64_t n, std::uint64_t steps, int checkpoints) {
  const auto init = tiny_compiled().initial_states();
  EXPECT_EQ(init.size(), 1u);
  sim.set_count(init[0], n);
  std::uint64_t digest = 0;
  for (int i = 0; i < checkpoints; ++i) {
    sim.steps(steps);
    digest = digest * 31 + digest_counts(sim.counts());
  }
  EXPECT_EQ(sim.interactions(), steps * static_cast<std::uint64_t>(checkpoints));
  EXPECT_EQ(sim.population_size(), n);
  return digest;
}

/// Epoch counters as {epochs, sequential, shuffle, dense}.
std::vector<std::uint64_t> epoch_paths(const BatchedCountSimulation& sim) {
  const auto& st = sim.stats();
  return {st.epochs, st.sequential, st.shuffle, st.dense};
}

// Pinned per-seed output: no change to the table's layout or to how cells
// are grouped may move a single sampled bit.
TEST(DispatchGolden, EagerCountSimulationIsPinned) {
  CountSimulation sim(tiny_compiled().spec, 0xD17);
  EXPECT_EQ(run_digest(sim, 100'000, 5'000, 6), 0x2519d0fe3a7bd501ULL);
}

TEST(DispatchGolden, EagerBatchedSamplersArePinned) {
  // n = 5·10³ runs mostly agent-by-agent epochs, 2·10⁶ shuffle pairing and
  // 10¹⁰ the dense contingency scan.
  BatchedCountSimulation small(tiny_compiled().spec, 0xD18);
  EXPECT_EQ(run_digest(small, 5'000, 10'000, 6), 0x620dfdf84393e794ULL);
  EXPECT_EQ(epoch_paths(small), (std::vector<std::uint64_t>{1306, 1298, 4, 4}));
  BatchedCountSimulation mid(tiny_compiled().spec, 0xD19);
  EXPECT_EQ(run_digest(mid, 2'000'000, 2'000'000, 6), 0x18f1f1f5ae2f915fULL);
  EXPECT_EQ(epoch_paths(mid), (std::vector<std::uint64_t>{13479, 0, 13278, 201}));
  BatchedCountSimulation giant(tiny_compiled().spec, 0xD1A);
  EXPECT_EQ(run_digest(giant, 10'000'000'000, 50'000'000, 6), 0xea9e48c474f0e3d6ULL);
  EXPECT_EQ(epoch_paths(giant), (std::vector<std::uint64_t>{4797, 0, 0, 4797}));
}

}  // namespace
}  // namespace pops
