// Chi-square GOF suite for the multiset primitives (stats/blocked.hpp):
//
//   * plan_blocks — boundaries partition the weights and respect the caps;
//   * split_multiset — per-(part, class) counts vs the
//     shuffle-the-expansion-and-cut reference it claims to equal;
//   * block shuffle (split + per-part fill/shuffle) — the class landing in a
//     fixed global slot vs a global Fisher–Yates of the same multiset;
//   * block_shuffle_fill — the fill preserves the multiset exactly.
//
// All seeds fixed; alpha = 0.001 per test via chi_square_critical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/rng.hpp"
#include "stats/blocked.hpp"
#include "stats/chi_square.hpp"

namespace pops {
namespace {

using Histogram = std::map<std::uint64_t, std::uint64_t>;

/// Serial reference for the claims below: expand the multiset, Fisher–Yates
/// shuffle the expansion, and (optionally) cut it into consecutive parts.
std::vector<std::uint32_t> shuffled_expansion(Rng& rng, const ClassMultiset& ms) {
  std::vector<std::uint32_t> slots;
  for (std::size_t k = 0; k < ms.ids.size(); ++k) {
    for (std::uint64_t c = ms.counts[k]; c > 0; --c) slots.push_back(ms.ids[k]);
  }
  for (std::size_t k = slots.size(); k > 1; --k) {
    std::swap(slots[k - 1], slots[rng.below(k)]);
  }
  return slots;
}

TEST(PlanBlocks, BoundsPartitionAndRespectCaps) {
  const std::vector<std::uint64_t> weights{5, 0, 12, 3, 40, 1, 1, 8};
  const auto bounds = plan_blocks(weights, 70, /*max_blocks=*/4, /*min_mass=*/10);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), weights.size());
  EXPECT_LE(bounds.size() - 1, 4u);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
  // min_mass dominates: 70 / 100 -> everything in one block.
  EXPECT_EQ(plan_blocks(weights, 70, 4, 100).size(), 2u);
  // Empty weights still produce a valid (degenerate) partition.
  EXPECT_EQ(plan_blocks({}, 0, 4, 10), (std::vector<std::uint32_t>{0, 0}));
}

TEST(SplitMultiset, PartTotalsAndClassSumsAreExact) {
  const ClassMultiset ms{{7, 3, 9, 42}, {13, 1, 25, 8}};  // total 47
  const std::vector<std::uint64_t> part_sizes{10, 0, 30, 7};
  std::vector<ClassMultiset> parts;
  for (int trial = 0; trial < 200; ++trial) {
    SubstreamSeeder seeder(0x5EED, static_cast<std::uint64_t>(trial));
    split_multiset(seeder, /*stream_base=*/0, ms, part_sizes, parts);
    ASSERT_EQ(parts.size(), part_sizes.size());
    std::vector<std::uint64_t> class_sum(ms.counts.size(), 0);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      ASSERT_EQ(parts[p].ids, ms.ids);
      EXPECT_EQ(parts[p].total(), part_sizes[p]);
      for (std::size_t k = 0; k < parts[p].counts.size(); ++k) {
        class_sum[k] += parts[p].counts[k];
      }
    }
    EXPECT_EQ(class_sum, ms.counts);  // the split is a dealing, not a draw
  }
}

TEST(SplitMultiset, PartCompositionsMatchShuffleAndCut) {
  const ClassMultiset ms{{0, 1, 2}, {20, 35, 15}};  // total 70
  const std::vector<std::uint64_t> part_sizes{25, 11, 34};
  const int kTrials = 4000;
  // Histogram per (part, class): count of class in that part.
  std::vector<Histogram> split_hist(part_sizes.size() * ms.ids.size());
  std::vector<Histogram> cut_hist(part_sizes.size() * ms.ids.size());
  std::vector<ClassMultiset> parts;
  Rng cut_rng(0xC07);
  for (int trial = 0; trial < kTrials; ++trial) {
    SubstreamSeeder seeder(0xFACE, static_cast<std::uint64_t>(trial));
    split_multiset(seeder, /*stream_base=*/0, ms, part_sizes, parts);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      for (std::size_t k = 0; k < ms.ids.size(); ++k) {
        ++split_hist[p * ms.ids.size() + k][parts[p].counts[k]];
      }
    }
    const auto slots = shuffled_expansion(cut_rng, ms);
    std::size_t offset = 0;
    for (std::size_t p = 0; p < part_sizes.size(); ++p) {
      std::vector<std::uint64_t> in_part(ms.ids.size(), 0);
      for (std::uint64_t s = 0; s < part_sizes[p]; ++s) {
        const std::uint32_t id = slots[offset + s];
        for (std::size_t k = 0; k < ms.ids.size(); ++k) {
          if (ms.ids[k] == id) ++in_part[k];
        }
      }
      offset += part_sizes[p];
      for (std::size_t k = 0; k < ms.ids.size(); ++k) {
        ++cut_hist[p * ms.ids.size() + k][in_part[k]];
      }
    }
  }
  for (std::size_t h = 0; h < split_hist.size(); ++h) {
    const auto verdict = two_sample_chi_square(split_hist[h], cut_hist[h]);
    EXPECT_TRUE(verdict.accept())
        << "part " << h / ms.ids.size() << " class " << h % ms.ids.size()
        << " statistic " << verdict.statistic << " df " << verdict.df;
  }
}

TEST(BlockShuffle, FixedSlotMarginalsMatchGlobalShuffle) {
  // The split-then-fill pipeline — split_multiset into per-part quotas, then
  // block_shuffle_fill per part — versus one global Fisher–Yates shuffle:
  // the class occupying any fixed global slot must be identically
  // distributed.  Probe slots in different parts, including part edges.
  const ClassMultiset ms{{10, 20, 30}, {18, 30, 12}};  // total 60
  const std::vector<std::uint64_t> part_sizes{21, 25, 14};
  const std::vector<std::size_t> probes{0, 20, 21, 40, 46, 59};
  const int kTrials = 4000;
  std::vector<Histogram> block_hist(probes.size()), global_hist(probes.size());
  std::vector<ClassMultiset> parts;
  std::vector<std::uint32_t> slots(60);
  Rng global_rng(0x6F0BA1);
  for (int trial = 0; trial < kTrials; ++trial) {
    SubstreamSeeder seeder(0xB0CA, static_cast<std::uint64_t>(trial));
    split_multiset(seeder, /*stream_base=*/0, ms, part_sizes, parts);
    std::size_t offset = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      Rng rng = seeder.stream(100 + p);
      block_shuffle_fill(rng, parts[p], slots.data() + offset, part_sizes[p]);
      offset += part_sizes[p];
    }
    for (std::size_t q = 0; q < probes.size(); ++q) ++block_hist[q][slots[probes[q]]];
    const auto reference = shuffled_expansion(global_rng, ms);
    for (std::size_t q = 0; q < probes.size(); ++q) {
      ++global_hist[q][reference[probes[q]]];
    }
  }
  for (std::size_t q = 0; q < probes.size(); ++q) {
    const auto verdict = two_sample_chi_square(block_hist[q], global_hist[q]);
    EXPECT_TRUE(verdict.accept())
        << "slot " << probes[q] << " statistic " << verdict.statistic << " df "
        << verdict.df;
  }
}

TEST(BlockShuffle, FillPreservesCompositionExactly) {
  const ClassMultiset part{{5, 6, 7}, {4, 0, 9}};
  std::vector<std::uint32_t> slots(13);
  Rng rng(0xF111);
  block_shuffle_fill(rng, part, slots.data(), slots.size());
  EXPECT_EQ(std::count(slots.begin(), slots.end(), 5u), 4);
  EXPECT_EQ(std::count(slots.begin(), slots.end(), 6u), 0);
  EXPECT_EQ(std::count(slots.begin(), slots.end(), 7u), 9);
}

}  // namespace
}  // namespace pops
