// Tests for the sparse dispatch table (sim/dispatch.hpp): cell
// classification, the pick() residual clamp, sorted-vs-direct row layout
// equivalence (including bit-identical simulator trajectories), and the
// sorted-to-direct row upgrade under load.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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
using Layout = DispatchTable::RowLayout;

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

// ------------------------------------------------------- layout parity -----

/// Every (r, s) cell must resolve identically under forced-sorted and
/// forced-direct rows: same presence, kind, clamp, and entry list.
void expect_same_cells(const FiniteSpec& spec) {
  const DispatchTable sorted(spec, Layout::kSorted);
  const DispatchTable direct(spec, Layout::kDirect);
  for (std::uint32_t r = 0; r < spec.num_states(); ++r) {
    for (std::uint32_t s = 0; s < spec.num_states(); ++s) {
      const Cell a = sorted.find(r, s);
      const Cell b = direct.find(r, s);
      ASSERT_EQ(a.present, b.present) << r << "," << s;
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.clamp, b.clamp);
      ASSERT_EQ(a.end - a.begin, b.end - b.begin);
      for (std::ptrdiff_t i = 0; i < a.end - a.begin; ++i) {
        ASSERT_EQ(a.begin[i].out_receiver, b.begin[i].out_receiver);
        ASSERT_EQ(a.begin[i].out_sender, b.begin[i].out_sender);
        ASSERT_EQ(a.begin[i].rate, b.begin[i].rate);
      }
    }
  }
}

TEST(DispatchTable, SortedAndDirectRowsResolveIdentically) {
  expect_same_cells(partition_spec());
  const auto proto = log_size_tiny();
  const auto compiled =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  expect_same_cells(compiled.spec);
}

/// The layouts index the same entry storage, so simulator trajectories under
/// a fixed seed must be bit-identical — the RNG stream never depends on the
/// row representation.
template <typename Sim>
void expect_same_trajectory(const FiniteSpec& spec,
                            const std::vector<std::pair<std::string, std::uint64_t>>& init,
                            std::uint64_t seed, std::uint64_t steps, int checkpoints) {
  Sim a(spec, seed, Layout::kSorted);
  Sim b(spec, seed, Layout::kDirect);
  for (const auto& [state, c] : init) {
    a.set_count(state, c);
    b.set_count(state, c);
  }
  for (int i = 0; i < checkpoints; ++i) {
    a.steps(steps);
    b.steps(steps);
    ASSERT_EQ(a.counts(), b.counts()) << "diverged at checkpoint " << i;
  }
}

TEST(DispatchTable, SparseAndDenseTrajectoriesAreBitIdentical) {
  const auto init =
      std::vector<std::pair<std::string, std::uint64_t>>{{"X", 50000}};
  expect_same_trajectory<CountSimulation>(partition_spec(), init, 0xD15, 2000, 10);
  expect_same_trajectory<BatchedCountSimulation>(partition_spec(), init, 0xD16, 20000, 10);
}

TEST(DispatchTable, CompiledHeadlineTrajectoriesAreBitIdentical) {
  const auto proto = log_size_tiny();
  const auto compiled =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  const auto init = compiled.initial_states();
  ASSERT_EQ(init.size(), 1u);
  const std::string seed_state = compiled.spec.name(init[0]);
  const auto init_counts =
      std::vector<std::pair<std::string, std::uint64_t>>{{seed_state, 100000}};
  expect_same_trajectory<CountSimulation>(compiled.spec, init_counts, 0xD17, 5000, 6);
  expect_same_trajectory<BatchedCountSimulation>(compiled.spec, init_counts, 0xD18,
                                                 200000, 6);
}

// ------------------------------------------------------------ row upgrade --

TEST(DispatchTable, SortedRowUpgradesToDirectUnderLoad) {
  // 512 states keeps kAuto rows sorted until a row's occupancy crosses
  // S / 8 = 64; filling one row past that exercises the upgrade path.
  const std::uint32_t s = 512;
  FiniteSpec spec;
  for (std::uint32_t i = 0; i < s; ++i) spec.add_unnamed_state();
  for (std::uint32_t j = 0; j < 100; ++j) spec.add(3, (j * 37) % s, j, 0);
  const DispatchTable table(spec, Layout::kAuto);
  for (std::uint32_t j = 0; j < 100; ++j) {
    const Cell c = table.find(3, (j * 37) % s);
    ASSERT_TRUE(c.present);
    ASSERT_EQ(c.kind, Kind::kDeterministic);
    ASSERT_EQ(c.begin->out_receiver, j);
  }
  EXPECT_FALSE(table.find(3, 1).present);  // 1 is not a multiple of 37 mod 512
  EXPECT_FALSE(table.find(4, 0).present);  // other rows stay empty
  EXPECT_EQ(table.num_cells(), 100u);
}

}  // namespace
}  // namespace pops
