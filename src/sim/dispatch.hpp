// Transition dispatch shared by the count-based simulators.
//
// `FiniteSpec` stores transitions as an edit-friendly list; the simulators
// need the inverse view — "given the input pair (receiver, sender), which
// transitions can fire?" — on the hottest path.  `DispatchTable` is that
// view, and the only one; a spec reaches it one of two ways:
//
//   * eager — `DispatchTable(spec)` groups a complete spec's transitions
//     into cells once, each row sized to its final cell count, and is then
//     only read (safe to share across simulator threads as-is).  The build
//     is also where an eager spec is checked: its counting pass applies
//     `FiniteSpec::require_transition` to every transition and its grouping
//     applies the per-pair rate rule to every cell, so simulators load a
//     spec without a separate `validate()` pass.  The 16 shards build as
//     executor tasks (core/executor.hpp); each shard's rows go in
//     increasing receiver order, so the table is the same at every
//     executor width;
//   * lazy/JIT — `DispatchTable(max_states, max_pairs)` starts empty and
//     `LazyCompiledSpec` (compile/lazy.hpp) registers each pair on first
//     contact (`grow_states` + `set_cell`) while simulators on other threads
//     keep stepping the table.
//
// Growing while being read is made safe by three ingredients:
//
//   * atomically published row views — each receiver's row is a per-row
//     open-addressing map from sender id to cell code, held behind an
//     atomic pointer.  Slot writes and row republications (capacity
//     doublings) are release stores; `find` is entirely lock-free (one
//     acquire load of the row pointer + acquire probes).  Old row versions
//     are retired, not freed, so a reader mid-probe never sees memory
//     disappear (total retired memory is geometric in the final row size);
//   * per-shard storage, sharded by receiver id — cell metadata and entry
//     arenas are per-shard, and all writes for a receiver's shard must be
//     serialized by the caller (`LazyCompiledSpec` holds the shard mutex
//     across explore + publish), so writers in different shards never touch
//     the same allocation;
//   * compact null pairs — a registered-but-null cell (the dominant kind
//     for saturating protocols, where finished-finished interactions are
//     no-ops) is a single reserved code in the row slot: no cell metadata,
//     no entries.
//
// Entry/cell/row storage is chunked (StableArena / block lists), so every
// pointer a reader obtains stays valid for the table's lifetime, while
// compiles keep extending it.
//
// Cells carry a kind tag so the common cases cost no indirection and no RNG:
//   * kNull          — no transition: the interaction is a no-op;
//   * kDeterministic — exactly one transition with rate 1.0: fire it without
//     consuming randomness (most paper protocols are deterministic, so this
//     skips a uniform_double() per interaction);
//   * kRandomized    — general case: choose among entries (or the residual
//     null transition) by cumulative rate.
//
// A registered cell — even an explicitly null one — reports `Cell::present`;
// the simulators compile a pair exactly when a JIT table reports it absent.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/executor.hpp"
#include "sim/finite_spec.hpp"
#include "sim/require.hpp"
#include "sim/stable_arena.hpp"

namespace pops {

class DispatchTable {
 public:
  struct Entry {
    std::uint32_t out_receiver = 0;
    std::uint32_t out_sender = 0;
    double rate = 1.0;
  };

  enum class CellKind : std::uint8_t { kNull, kDeterministic, kRandomized };

  /// Resolved view of one (receiver, sender) cell — the hot-path handle
  /// returned by `find`.  Pointers remain valid for the table's lifetime.
  struct Cell {
    const Entry* begin = nullptr;
    const Entry* end = nullptr;
    CellKind kind = CellKind::kNull;
    bool clamp = false;    ///< rates cover 1.0: no residual null mass
    bool present = false;  ///< cell explicitly registered (JIT bookkeeping)
  };

  static constexpr std::uint32_t kNumShards = 16;
  static std::uint32_t shard_of(std::uint32_t receiver) { return receiver % kNumShards; }

  /// Growable table: no states yet, room for `max_states` states and
  /// `max_pairs` registered cells per shard.
  DispatchTable(std::size_t max_states, std::size_t max_pairs)
      : max_states_(max_states),
        row_blocks_((max_states + kRowBlock - 1) / kRowBlock + 1) {
    shards_.reserve(kNumShards);
    for (std::uint32_t i = 0; i < kNumShards; ++i) {
      shards_.push_back(std::make_unique<Shard>(max_pairs));
    }
  }

  /// Eager build from a complete spec: group the transition list into cells
  /// without ever materializing the S² grid (counting sort by receiver, then
  /// an in-row stable sort by sender keeps each cell's entries in spec
  /// order, which fixes the cumulative-rate walk and the binomial-split
  /// order).  Each row is allocated once at its final cell count.  Throws
  /// on a transition or a pair that breaks the spec's rules, naming the
  /// over-rate pair of lowest receiver, then lowest sender.
  explicit DispatchTable(const FiniteSpec& spec)
      : DispatchTable(spec.num_states(), spec.transitions().size()) {
    const std::uint32_t n = spec.num_states();
    grow_states(n);
    const auto& ts = spec.transitions();
    std::vector<std::uint32_t> row_start(n + 1, 0);
    for (const auto& t : ts) {
      spec.require_transition(t);
      ++row_start[t.in_receiver + 1];
    }
    for (std::uint32_t r = 0; r < n; ++r) row_start[r + 1] += row_start[r];
    std::vector<std::uint32_t> order(ts.size());
    {
      std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
      for (std::uint32_t i = 0; i < ts.size(); ++i) order[cursor[ts[i].in_receiver]++] = i;
    }
    // Shards share no storage, so each one's rows build as a task of their
    // own (inline in wait() at width 1); within a shard they go in
    // increasing receiver order, so arena positions and row versions match
    // at any width.
    std::array<RateFault, kNumShards> faults;
    Executor::TaskGroup group;
    for (std::uint32_t k = 0; k < kNumShards; ++k) {
      group.run([&, k] { faults[k] = build_shard(k, ts, row_start, order); });
    }
    group.wait();
    // Names are read only here, after the join: the lowest over-rate
    // receiver is the pair a serial row-order build would meet first.
    const RateFault& first = *std::min_element(
        faults.begin(), faults.end(),
        [](const RateFault& a, const RateFault& b) { return a.receiver < b.receiver; });
    if (first.receiver != RateFault::kNone) {
      spec.require_pair_rate(first.receiver, first.sender, first.total);
    }
  }

  DispatchTable(const DispatchTable&) = delete;
  DispatchTable& operator=(const DispatchTable&) = delete;

  std::uint32_t num_states() const { return num_states_.load(std::memory_order_acquire); }

  /// Registered pairs (explicit nulls included), and the compact-null share.
  std::size_t num_cells() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->registered.load(std::memory_order_relaxed);
    return total;
  }
  std::size_t num_null_cells() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->null_cells.load(std::memory_order_relaxed);
    return total;
  }
  std::size_t num_entries() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->num_entries.load(std::memory_order_relaxed);
    return total;
  }

  /// Extend the state space (new states have empty rows until `set_cell`).
  /// Internally synchronized; monotonic.
  void grow_states(std::uint32_t num_states) {
    if (num_states <= this->num_states()) return;
    const std::lock_guard<std::mutex> lock(growth_mutex_);
    const std::uint32_t cur = num_states_.load(std::memory_order_relaxed);
    if (num_states <= cur) return;
    POPS_REQUIRE(num_states <= max_states_,
                 "dispatch table exceeds max_states; raise CompileOptions.max_states");
    for (std::size_t b = 0; b * kRowBlock < num_states; ++b) {
      if (row_blocks_[b] == nullptr) {
        auto block = std::make_unique<std::atomic<Row*>[]>(kRowBlock);
        for (std::size_t i = 0; i < kRowBlock; ++i) {
          block[i].store(nullptr, std::memory_order_relaxed);
        }
        row_blocks_[b] = std::move(block);
      }
    }
    num_states_.store(num_states, std::memory_order_release);
  }

  /// Register the cell for pair (r, s): `len` entries starting at `cell`
  /// (len 0 records a compact explicitly-null cell).  Each pair registers
  /// once.  The caller must hold the shard lock for `shard_of(r)` — the
  /// table itself does not lock; `LazyCompiledSpec` serializes explore +
  /// set_cell under one shard mutex.
  void set_cell(std::uint32_t r, std::uint32_t s, const Entry* cell, std::uint32_t len) {
    POPS_REQUIRE(r < num_states() && s < num_states(), "set_cell state out of range");
    POPS_REQUIRE(!find(r, s).present, "pair registered twice");
    Shard& sh = *shards_[shard_of(r)];
    double total = 0.0;
    for (std::uint32_t i = 0; i < len; ++i) total += cell[i].rate;
    const std::uint32_t code = store_cell(sh, cell, len, total);
    Row* row = row_slot(r).load(std::memory_order_relaxed);
    const std::size_t size = row == nullptr ? 0 : row->size;
    if (row == nullptr || row_capacity(size + 1) > row->mask + 1) {
      row = &publish_row(sh, r, row_capacity(size + 1));
    }
    place(*row, s, code);
  }

  /// Lock-free lookup; safe concurrent with set_cell/grow_states from any
  /// thread.  Null cells report `present` with kind kNull and no entries.
  Cell find(std::uint32_t receiver, std::uint32_t sender) const {
    if (receiver >= num_states()) return Cell{};
    const Row* row = row_slot(receiver).load(std::memory_order_acquire);
    if (row == nullptr) return Cell{};
    const std::uint64_t want = static_cast<std::uint64_t>(sender) + 1;
    for (std::uint64_t idx = mix32(sender) & row->mask;;
         idx = (idx + 1) & row->mask) {
      const std::uint64_t slot = row->slots[idx].load(std::memory_order_acquire);
      if (slot == 0) return Cell{};
      if ((slot >> 32) == want) {
        const std::uint32_t code = static_cast<std::uint32_t>(slot);
        if (code == kNullCode) {
          return Cell{nullptr, nullptr, CellKind::kNull, false, true};
        }
        const CellMeta& m = shards_[shard_of(receiver)]->cells[code];
        return Cell{m.begin, m.begin + m.len, m.kind, m.clamp, true};
      }
    }
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
  static constexpr std::uint32_t kNullCode = 0xFFFFFFFFu;
  static constexpr std::size_t kRowBlock = 2048;
  static constexpr std::size_t kEntryBlock = 4096;

  static std::uint64_t mix32(std::uint32_t x) {
    std::uint64_t h = (static_cast<std::uint64_t>(x) + 1) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  }

  struct CellMeta {
    const Entry* begin = nullptr;
    std::uint32_t len = 0;
    CellKind kind = CellKind::kNull;
    bool clamp = false;
  };

  /// One row version: an open-addressing map sender -> code.  Slots pack
  /// (sender + 1) << 32 | code; 0 = empty.
  struct Row {
    explicit Row(std::size_t capacity)
        : mask(capacity - 1), slots(new std::atomic<std::uint64_t>[capacity]) {
      for (std::size_t i = 0; i < capacity; ++i) {
        slots[i].store(0, std::memory_order_relaxed);
      }
    }
    const std::uint64_t mask;
    std::uint32_t size = 0;  ///< occupied slots; writer-only
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  struct Shard {
    explicit Shard(std::size_t max_pairs) : cells(max_pairs) {}

    /// Contiguous run of `len` entries whose address is stable forever: a
    /// cell never straddles blocks, and one longer than a block gets a
    /// block of its own.
    Entry* alloc_entries(std::uint32_t len) {
      if (len > kEntryBlock) {
        entry_blocks.push_back(std::make_unique<Entry[]>(len));
        return entry_blocks.back().get();
      }
      if (entry_fill + len > kEntryBlock) {
        entry_blocks.push_back(std::make_unique<Entry[]>(kEntryBlock));
        entry_block = entry_blocks.back().get();
        entry_fill = 0;
      }
      Entry* out = entry_block + entry_fill;
      entry_fill += len;
      return out;
    }

    StableArena<CellMeta> cells;
    std::vector<std::unique_ptr<Entry[]>> entry_blocks;
    Entry* entry_block = nullptr;          ///< block being filled
    std::size_t entry_fill = kEntryBlock;  ///< forces first-block allocation
    std::vector<std::unique_ptr<Row>> rows;  ///< every row version (old ones retired)
    std::atomic<std::size_t> registered{0};
    std::atomic<std::size_t> null_cells{0};
    std::atomic<std::size_t> num_entries{0};
  };

  /// A shard's first cell over the per-pair rate rule (kNone: none).
  struct RateFault {
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    std::uint32_t receiver = kNone;
    std::uint32_t sender = 0;
    double total = 0.0;
  };

  /// Eager build of shard k: rows r ≡ k (mod kNumShards) in increasing r,
  /// from the receiver-sorted `order` of `ts`.  Stops at its first
  /// over-rate cell and returns it.
  RateFault build_shard(std::uint32_t k, const std::vector<Transition>& ts,
                        const std::vector<std::uint32_t>& row_start,
                        std::vector<std::uint32_t>& order) {
    Shard& sh = *shards_[k];
    const auto n = static_cast<std::uint32_t>(row_start.size() - 1);
    std::vector<Entry> cell;
    for (std::uint32_t r = k; r < n; r += kNumShards) {
      const auto row_begin = order.begin() + row_start[r];
      const auto row_end = order.begin() + row_start[r + 1];
      if (row_begin == row_end) continue;
      std::stable_sort(row_begin, row_end, [&](std::uint32_t a, std::uint32_t b) {
        return ts[a].in_sender < ts[b].in_sender;
      });
      std::size_t cells = 1;
      for (auto it = row_begin + 1; it != row_end; ++it) {
        cells += ts[*it].in_sender != ts[*(it - 1)].in_sender ? 1 : 0;
      }
      Row& row = publish_row(sh, r, row_capacity(cells));
      for (auto it = row_begin; it != row_end;) {
        const std::uint32_t s = ts[*it].in_sender;
        cell.clear();
        double total = 0.0;
        for (; it != row_end && ts[*it].in_sender == s; ++it) {
          cell.push_back(Entry{ts[*it].out_receiver, ts[*it].out_sender, ts[*it].rate});
          total += ts[*it].rate;
        }
        if (!FiniteSpec::pair_rate_ok(total)) return RateFault{r, s, total};
        place(row, s,
              store_cell(sh, cell.data(), static_cast<std::uint32_t>(cell.size()), total));
      }
    }
    return RateFault{};
  }

  std::atomic<Row*>& row_slot(std::uint32_t receiver) const {
    return row_blocks_[receiver / kRowBlock][receiver % kRowBlock];
  }

  /// Copy a cell's entries into the shard's storage and return its row-slot
  /// code (kNullCode for len 0).  `total` is the entries' rates summed in
  /// order, which the caller has already walked.  Caller holds the shard lock.
  static std::uint32_t store_cell(Shard& sh, const Entry* cell, std::uint32_t len,
                                  double total) {
    sh.registered.fetch_add(1, std::memory_order_relaxed);
    if (len == 0) {
      sh.null_cells.fetch_add(1, std::memory_order_relaxed);
      return kNullCode;
    }
    Entry* dst = sh.alloc_entries(len);
    std::copy(cell, cell + len, dst);
    const CellKind kind = (len == 1 && dst[0].rate >= 1.0) ? CellKind::kDeterministic
                                                           : CellKind::kRandomized;
    sh.num_entries.fetch_add(len, std::memory_order_relaxed);
    return static_cast<std::uint32_t>(sh.cells.push(CellMeta{dst, len, kind, total >= 1.0}));
  }

  /// Smallest power-of-two slot count (at least 8) that keeps `cells`
  /// occupied slots under the 3/4 load factor.
  static std::size_t row_capacity(std::size_t cells) {
    std::size_t cap = 8;
    while (cells * 4 >= cap * 3) cap *= 2;
    return cap;
  }

  /// Publish a new version of r's row with `capacity` slots, holding every
  /// slot of the current version (which is retired, never freed).  Caller
  /// holds r's shard lock.
  Row& publish_row(Shard& sh, std::uint32_t r, std::size_t capacity) {
    std::atomic<Row*>& published = row_slot(r);
    const Row* old = published.load(std::memory_order_relaxed);
    sh.rows.push_back(std::make_unique<Row>(capacity));
    Row& next = *sh.rows.back();
    if (old != nullptr) {
      next.size = old->size;
      for (std::uint64_t i = 0; i <= old->mask; ++i) {
        const std::uint64_t slot = old->slots[i].load(std::memory_order_relaxed);
        if (slot != 0) put(next, slot);
      }
    }
    published.store(&next, std::memory_order_release);
    return next;
  }

  /// Insert (s -> code) into a row with room for it.
  static void place(Row& row, std::uint32_t s, std::uint32_t code) {
    put(row, (static_cast<std::uint64_t>(s) + 1) << 32 | code);
    ++row.size;
  }

  static void put(Row& row, std::uint64_t slot) {
    std::uint64_t idx = mix32(static_cast<std::uint32_t>((slot >> 32) - 1)) & row.mask;
    while (row.slots[idx].load(std::memory_order_relaxed) != 0) {
      idx = (idx + 1) & row.mask;
    }
    row.slots[idx].store(slot, std::memory_order_release);
  }

  std::size_t max_states_;
  std::vector<std::unique_ptr<std::atomic<Row*>[]>> row_blocks_;  ///< fixed directory
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> num_states_{0};
  std::mutex growth_mutex_;
};

}  // namespace pops
