// Substream seeding and multiset shuffle primitives for batched epochs.
//
//   * `SubstreamSeeder` — hands out the counter-based RNG substreams of one
//     epoch, keyed (seed, epoch, stream index), so every epoch stage draws
//     from its own reproducible stream.
//
//   * `block_shuffle_fill` — expand a class multiset into a slot range and
//     Fisher–Yates shuffle it: the batched simulator's sender shuffle, which
//     realizes the uniform bipartite matching of an epoch's receivers and
//     senders.
//
//   * `split_multiset` — deal a class multiset into parts of prescribed
//     sizes, distribution-identical to uniformly shuffling the multiset and
//     cutting it into consecutive ranges of those sizes (a binary recursion
//     of multivariate hypergeometric splits, one substream per recursion-tree
//     node).  With `plan_blocks`, which cuts a weight vector into ~equal-mass
//     contiguous blocks, it is no longer used by the simulator, whose epochs
//     are serial; the layer probes of the milestone benchmark still replay
//     it.
//
// The chi-square GOF suite (tests/test_blocked_stats.cpp) certifies that
// split-then-fill is distribution-identical to one global shuffle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "stats/discrete.hpp"

namespace pops {

/// Hands out the independent substreams of one epoch: stream(i) is the
/// counter-based stream keyed (master, epoch, i).  Copyable and stateless —
/// any thread may materialize any stream at any time.
class SubstreamSeeder {
 public:
  SubstreamSeeder(std::uint64_t master, std::uint64_t epoch)
      : master_(master), epoch_(epoch) {}

  Rng stream(std::uint64_t index) const {
    return Rng(substream_seed(master_, epoch_, index));
  }

 private:
  std::uint64_t master_;
  std::uint64_t epoch_;
};

/// A sparse class multiset: parallel id/count arrays (ids need not be dense
/// or sorted; counts are per-id).  The blocked primitives read and write
/// this shape because the batched simulator's per-epoch structures are
/// sparse in the occupied classes.
struct ClassMultiset {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> counts;  ///< counts[k] pairs with ids[k]

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto c : counts) t += c;
    return t;
  }
  void clear() {
    ids.clear();
    counts.clear();
  }
};

namespace detail {

/// Split one recursion node's multiset among `part_sizes[plo, phi)`, writing
/// per-part class counts into `out[p]` (ids mirror the parent's ids).  One
/// tree node = one substream: node ids follow heap order from `node`, so
/// sibling subtrees never share a stream.
inline void split_multiset_node(const SubstreamSeeder& seeder, std::uint64_t stream_base,
                                std::uint64_t node, const std::vector<std::uint32_t>& ids,
                                std::vector<std::uint64_t> node_counts,
                                std::uint64_t node_total,
                                const std::vector<std::uint64_t>& part_sizes,
                                std::size_t plo, std::size_t phi,
                                std::vector<ClassMultiset>& out) {
  if (phi - plo == 1) {
    out[plo].ids = ids;
    out[plo].counts = std::move(node_counts);
    return;
  }
  const std::size_t pmid = plo + (phi - plo) / 2;
  std::uint64_t left_total = 0;
  for (std::size_t p = plo; p < pmid; ++p) left_total += part_sizes[p];
  // One multivariate hypergeometric chain: which of this node's items land
  // in the left half of its parts.
  Rng rng = seeder.stream(stream_base + node);
  std::vector<std::uint64_t> left(node_counts.size(), 0);
  std::uint64_t remaining_total = node_total;
  std::uint64_t need = left_total;
  for (std::size_t k = 0; k < node_counts.size(); ++k) {
    const std::uint64_t c = node_counts[k];
    if (c == 0) continue;
    const std::uint64_t d = need == 0 ? 0 : hypergeometric(rng, remaining_total, c, need);
    left[k] = d;
    node_counts[k] = c - d;
    need -= d;
    remaining_total -= c;
  }
  POPS_REQUIRE(need == 0, "split_multiset: part sizes exceed multiset total");
  split_multiset_node(seeder, stream_base, 2 * node, ids, std::move(left), left_total,
                      part_sizes, plo, pmid, out);
  split_multiset_node(seeder, stream_base, 2 * node + 1, ids, std::move(node_counts),
                      node_total - left_total, part_sizes, pmid, phi, out);
}

}  // namespace detail

/// Deal `multiset` into `part_sizes.size()` parts where part p receives
/// exactly part_sizes[p] items — distribution-identical to uniformly
/// shuffling the multiset's items and cutting the sequence into consecutive
/// ranges of the given sizes (only the per-part *compositions* are produced;
/// compose with a per-part shuffle for the full permutation).  Σ part_sizes
/// must equal the multiset total.  Streams [stream_base, stream_base +
/// 2·parts) are consumed, keyed by recursion-tree node.
inline void split_multiset(const SubstreamSeeder& seeder, std::uint64_t stream_base,
                           const ClassMultiset& multiset,
                           const std::vector<std::uint64_t>& part_sizes,
                           std::vector<ClassMultiset>& out) {
  POPS_REQUIRE(!part_sizes.empty(), "split_multiset: need at least one part");
  out.assign(part_sizes.size(), {});
  detail::split_multiset_node(seeder, stream_base, /*node=*/1, multiset.ids,
                              multiset.counts, multiset.total(), part_sizes,
                              0, part_sizes.size(), out);
}

/// Contiguous ~equal-mass partition of `weights` into at most `max_blocks`
/// blocks of at least `min_mass` each (the last block absorbs the
/// remainder).  Returns block boundaries b_0 = 0 < b_1 < ... < b_k = size.
inline std::vector<std::uint32_t> plan_blocks(const std::vector<std::uint64_t>& weights,
                                              std::uint64_t total,
                                              std::uint32_t max_blocks,
                                              std::uint64_t min_mass) {
  std::vector<std::uint32_t> bounds{0};
  const auto size = static_cast<std::uint32_t>(weights.size());
  if (size == 0) {
    bounds.push_back(0);
    return bounds;
  }
  const std::uint64_t blocks_by_mass = min_mass == 0 ? max_blocks : total / min_mass;
  const std::uint32_t blocks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>({max_blocks, blocks_by_mass, size})));
  const std::uint64_t target = (total + blocks - 1) / std::max<std::uint64_t>(blocks, 1);
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    acc += weights[i];
    if (acc >= target && bounds.size() < blocks && i + 1 < size) {
      bounds.push_back(i + 1);
      acc = 0;
    }
  }
  bounds.push_back(size);
  return bounds;
}

/// Fill `slots[0, len)` with a uniform shuffle of `part` (a class multiset
/// with total == len) from one substream: sequential expansion then an
/// in-range Fisher–Yates.  The batched simulator calls it once over the
/// whole sender multiset.  Called once per part of a `split_multiset`
/// dealing, it also yields a uniform permutation of the whole multiset
/// (exact part compositions × uniform within-part permutations).
inline void block_shuffle_fill(Rng& rng, const ClassMultiset& part,
                               std::uint32_t* slots, std::uint64_t len) {
  std::uint64_t w = 0;
  for (std::size_t k = 0; k < part.ids.size(); ++k) {
    for (std::uint64_t c = part.counts[k]; c > 0; --c) slots[w++] = part.ids[k];
  }
  POPS_REQUIRE(w == len, "block_shuffle_fill: part total != slot range");
  if (len < 2) return;
  for (std::uint64_t k = len - 1; k > 0; --k) {
    std::swap(slots[k], slots[rng.below(k + 1)]);
  }
}

}  // namespace pops
