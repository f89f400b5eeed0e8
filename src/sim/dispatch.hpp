// Flattened transition dispatch shared by the count-based simulators.
//
// `FiniteSpec` stores transitions as an edit-friendly list; the simulators
// need the inverse view — "given the input pair (receiver, sender), which
// transitions can fire?" — on the hottest path.  `DispatchTable` compiles the
// spec into per-receiver *rows* over the S×S input-pair grid instead of the
// former dense S² offset/kind arrays (which were the memory floor at ~10⁴
// states):
//
//   * sorted row  — column ids in ascending order + parallel cell ids;
//     lookup is a binary search over the row's occupancy (compiled specs
//     touch a sliver of each row, so this is the common layout);
//   * direct row  — a column-indexed array of cell ids; O(1) lookup, chosen
//     when the row's occupancy makes the array worth its S slots (and always
//     for small S, where the array is a cache line anyway).
//
// Rows choose their layout independently by occupancy (`RowLayout::kAuto`);
// tests can force all-sorted or all-direct — the two layouts index the same
// entry storage, so trajectories under a fixed seed are bit-identical.
//
// Cells carry a kind tag so the common cases cost no indirection and no RNG:
//   * kNull          — no registered transition: the interaction is a no-op;
//   * kDeterministic — exactly one transition with rate 1.0: fire it without
//     consuming randomness (most paper protocols are deterministic, so this
//     skips a uniform_double() per interaction);
//   * kRandomized    — general case: choose among entries (or the residual
//     null transition) by cumulative rate.
//
// A registered cell — even an explicitly null one — reports
// `Cell::present`.  This table is the eager build: single-threaded
// construction from a complete spec, then read-only (safe to share across
// simulator threads).  The lazy/JIT compilation path registers cells into
// the thread-safe, growable `ConcurrentDispatchTable`
// (sim/shared_dispatch.hpp) instead, which shares this table's Entry/Cell
// types so the simulators' dispatch code is layout-agnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/finite_spec.hpp"
#include "sim/require.hpp"

namespace pops {

class DispatchTable {
 public:
  struct Entry {
    std::uint32_t out_receiver = 0;
    std::uint32_t out_sender = 0;
    double rate = 1.0;
  };

  enum class CellKind : std::uint8_t { kNull, kDeterministic, kRandomized };

  /// Row-layout policy.  kAuto picks per row by occupancy; kSorted/kDirect
  /// force one layout everywhere (equivalence tests A/B the two).
  enum class RowLayout : std::uint8_t { kAuto, kSorted, kDirect };

  /// Resolved view of one (receiver, sender) cell — the hot-path handle
  /// returned by `find`.  Pointers remain valid for the table's lifetime.
  struct Cell {
    const Entry* begin = nullptr;
    const Entry* end = nullptr;
    CellKind kind = CellKind::kNull;
    bool clamp = false;    ///< rates cover 1.0: no residual null mass
    bool present = false;  ///< cell explicitly registered (JIT bookkeeping)
  };

  DispatchTable() = default;

  /// Eager build from a complete spec: group the transition list into cells
  /// without ever materializing the S² grid (counting sort by receiver, then
  /// an in-row stable sort by sender keeps each cell's entries in spec
  /// order, which fixes the cumulative-rate walk and the binomial-split
  /// order independently of the row layout).
  explicit DispatchTable(const FiniteSpec& spec, RowLayout layout = RowLayout::kAuto)
      : num_states_(spec.num_states()), layout_(layout) {
    rows_.resize(num_states_);
    const auto& ts = spec.transitions();
    std::vector<std::uint32_t> row_start(num_states_ + 1, 0);
    for (const auto& t : ts) ++row_start[t.in_receiver + 1];
    for (std::uint32_t r = 0; r < num_states_; ++r) row_start[r + 1] += row_start[r];
    std::vector<std::uint32_t> order(ts.size());
    {
      std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
      for (std::uint32_t i = 0; i < ts.size(); ++i) order[cursor[ts[i].in_receiver]++] = i;
    }
    entries_.reserve(ts.size());
    for (std::uint32_t r = 0; r < num_states_; ++r) {
      const auto row_begin = order.begin() + row_start[r];
      const auto row_end = order.begin() + row_start[r + 1];
      std::stable_sort(row_begin, row_end, [&](std::uint32_t a, std::uint32_t b) {
        return ts[a].in_sender < ts[b].in_sender;
      });
      for (auto it = row_begin; it != row_end;) {
        const std::uint32_t s = ts[*it].in_sender;
        const std::uint32_t first = static_cast<std::uint32_t>(entries_.size());
        double total = 0.0;
        while (it != row_end && ts[*it].in_sender == s) {
          const Transition& t = ts[*it];
          entries_.push_back(Entry{t.out_receiver, t.out_sender, t.rate});
          total += t.rate;
          ++it;
        }
        append_cell(r, s, first, static_cast<std::uint32_t>(entries_.size()) - first,
                    total);
      }
    }
  }

  std::uint32_t num_states() const { return num_states_; }
  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_entries() const { return entries_.size(); }

  Cell find(std::uint32_t receiver, std::uint32_t sender) const {
    const Row& row = rows_[receiver];
    std::uint32_t cell_id = kNoCell;
    if (row.is_direct) {
      if (sender < row.direct.size()) cell_id = row.direct[sender];
    } else {
      const auto it = std::lower_bound(row.cols.begin(), row.cols.end(), sender);
      if (it != row.cols.end() && *it == sender) {
        cell_id = row.cell_ids[static_cast<std::size_t>(it - row.cols.begin())];
      }
    }
    if (cell_id == kNoCell) return Cell{};
    const CellMeta& m = cells_[cell_id];
    const Entry* base = entries_.data() + m.first;
    return Cell{base, base + m.len, m.kind, m.clamp, true};
  }

  /// Select the entry of a randomized cell fired by rate draw `u` (uniform in
  /// [0, 1)), or nullptr for the residual null transition.  Both count
  /// simulators route their rate draws through here so the cumulative walk
  /// (and its floating-point residual handling) exists exactly once.  When
  /// the cell's rates sum to (at least) 1.0 there is no residual null mass,
  /// yet accumulated rounding in the subtraction chain can let `u` fall off
  /// the end — `clamp` assigns that stray sliver to the last entry instead of
  /// spuriously returning the null transition.
  static const Entry* pick(const Cell& cell, double u) {
    for (const Entry* e = cell.begin; e != cell.end; ++e) {
      if (u < e->rate) return e;
      u -= e->rate;
    }
    return cell.clamp ? cell.end - 1 : nullptr;
  }

 private:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  struct CellMeta {
    std::uint32_t first = 0;  ///< index into entries_
    std::uint32_t len = 0;
    CellKind kind = CellKind::kNull;
    bool clamp = false;
  };

  struct Row {
    std::vector<std::uint32_t> cols;      ///< sorted column (sender) ids
    std::vector<std::uint32_t> cell_ids;  ///< parallel to cols
    std::vector<std::uint32_t> direct;    ///< column-indexed cell ids
    bool is_direct = false;
  };

  /// A row earns the direct (column-indexed) layout when its occupancy pays
  /// for the S-slot array — or trivially, when S itself is small.
  bool wants_direct(std::size_t occupancy) const {
    if (layout_ == RowLayout::kSorted) return false;
    if (layout_ == RowLayout::kDirect) return true;
    return num_states_ <= 64 || occupancy * 8 >= num_states_;
  }

  void append_cell(std::uint32_t r, std::uint32_t s, std::uint32_t first,
                   std::uint32_t len, double total_rate) {
    const std::uint32_t cell_id = static_cast<std::uint32_t>(cells_.size());
    CellMeta m{first, len, CellKind::kNull, total_rate >= 1.0};
    if (len > 0) {
      m.kind = (len == 1 && entries_[first].rate >= 1.0) ? CellKind::kDeterministic
                                                         : CellKind::kRandomized;
    }
    cells_.push_back(m);
    Row& row = rows_[r];
    if (!row.is_direct) {
      const auto it = std::lower_bound(row.cols.begin(), row.cols.end(), s);
      row.cell_ids.insert(row.cell_ids.begin() + (it - row.cols.begin()), cell_id);
      row.cols.insert(it, s);
      if (wants_direct(row.cols.size())) {
        row.direct.assign(num_states_, kNoCell);
        for (std::size_t i = 0; i < row.cols.size(); ++i) {
          row.direct[row.cols[i]] = row.cell_ids[i];
        }
        row.cols.clear();
        row.cols.shrink_to_fit();
        row.cell_ids.clear();
        row.cell_ids.shrink_to_fit();
        row.is_direct = true;
      }
    } else {
      row.direct[s] = cell_id;
    }
  }

  std::uint32_t num_states_ = 0;
  RowLayout layout_ = RowLayout::kAuto;
  std::vector<Entry> entries_;   ///< per-cell contiguous runs
  std::vector<CellMeta> cells_;
  std::vector<Row> rows_;
};

}  // namespace pops
