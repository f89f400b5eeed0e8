// Concurrency-safe dispatch table for the lazy/JIT compilation path.
//
// The eager `DispatchTable` (sim/dispatch.hpp) is built once and then only
// read — safe to share across simulator threads as-is.  The JIT path is the
// opposite: the table *grows while simulators step it*, so N trials fanned
// out over threads (harness/trials.hpp) all race lookups against whichever
// thread is compiling the next missed pair.  `ConcurrentDispatchTable` makes
// that safe with three ingredients:
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
//     no entries, 8 bytes total instead of a full Cell record.
//
// Entry/cell/row storage is chunked (StableArena / block lists), so every
// pointer a reader obtains stays valid for the table's lifetime, while
// compiles keep extending it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/require.hpp"
#include "sim/stable_arena.hpp"

namespace pops {

class ConcurrentDispatchTable {
 public:
  using Entry = DispatchTable::Entry;
  using Cell = DispatchTable::Cell;
  using CellKind = DispatchTable::CellKind;

  static constexpr std::uint32_t kNumShards = 16;
  static std::uint32_t shard_of(std::uint32_t receiver) { return receiver % kNumShards; }

  ConcurrentDispatchTable(std::size_t max_states, std::size_t max_pairs)
      : max_states_(max_states),
        row_blocks_((max_states + kRowBlock - 1) / kRowBlock + 1) {
    shards_.reserve(kNumShards);
    for (std::uint32_t i = 0; i < kNumShards; ++i) {
      shards_.push_back(std::make_unique<Shard>(max_pairs));
    }
  }

  ConcurrentDispatchTable(const ConcurrentDispatchTable&) = delete;
  ConcurrentDispatchTable& operator=(const ConcurrentDispatchTable&) = delete;

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
    std::uint32_t code = kNullCode;
    if (len == 0) {
      sh.null_cells.fetch_add(1, std::memory_order_relaxed);
    } else {
      Entry* dst = sh.alloc_entries(len);
      double total = 0.0;
      for (std::uint32_t i = 0; i < len; ++i) {
        dst[i] = cell[i];
        total += cell[i].rate;
      }
      const CellKind kind = (len == 1 && dst[0].rate >= 1.0) ? CellKind::kDeterministic
                                                             : CellKind::kRandomized;
      code = static_cast<std::uint32_t>(
          sh.cells.push(CellMeta{dst, len, kind, total >= 1.0}));
      sh.num_entries.fetch_add(len, std::memory_order_relaxed);
    }
    sh.registered.fetch_add(1, std::memory_order_relaxed);
    insert_slot(sh, r, s, code);
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

    /// Contiguous run of `len` entries from the shard's block list (a cell
    /// never straddles blocks); addresses are stable forever.
    Entry* alloc_entries(std::uint32_t len) {
      POPS_REQUIRE(len <= kEntryBlock, "cell exceeds entry block size");
      if (entry_fill + len > kEntryBlock) {
        entry_blocks.push_back(std::make_unique<Entry[]>(kEntryBlock));
        entry_fill = 0;
      }
      Entry* out = entry_blocks.back().get() + entry_fill;
      entry_fill += len;
      return out;
    }

    StableArena<CellMeta> cells;
    std::vector<std::unique_ptr<Entry[]>> entry_blocks;
    std::size_t entry_fill = kEntryBlock;  ///< forces first-block allocation
    std::vector<std::unique_ptr<Row>> rows;  ///< every row version (old ones retired)
    std::atomic<std::size_t> registered{0};
    std::atomic<std::size_t> null_cells{0};
    std::atomic<std::size_t> num_entries{0};
  };

  std::atomic<Row*>& row_slot(std::uint32_t receiver) const {
    return row_blocks_[receiver / kRowBlock][receiver % kRowBlock];
  }

  /// Insert (s -> code) into r's row, doubling + republishing the row when
  /// its load factor crosses 3/4.  Caller holds r's shard lock.
  void insert_slot(Shard& sh, std::uint32_t r, std::uint32_t s, std::uint32_t code) {
    std::atomic<Row*>& published = row_slot(r);
    Row* row = published.load(std::memory_order_relaxed);
    if (row == nullptr || (row->size + 1) * 4 >= (row->mask + 1) * 3) {
      const std::size_t cap =
          row == nullptr ? 8 : static_cast<std::size_t>(row->mask + 1) * 2;
      sh.rows.push_back(std::make_unique<Row>(cap));
      Row* next = sh.rows.back().get();
      if (row != nullptr) {
        next->size = row->size;
        for (std::uint64_t i = 0; i <= row->mask; ++i) {
          const std::uint64_t slot = row->slots[i].load(std::memory_order_relaxed);
          if (slot != 0) place(*next, slot);
        }
      }
      published.store(next, std::memory_order_release);  // old version retired
      row = next;
    }
    place(*row, (static_cast<std::uint64_t>(s) + 1) << 32 | code);
    ++row->size;
  }

  static void place(Row& row, std::uint64_t slot) {
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

/// JIT source consumed by the count simulators: compiles (receiver, sender)
/// pairs on first contact, extending `table()` and possibly interning new
/// states (growing `table().num_states()` and `spec()`'s name registry).
/// Implemented by `LazyCompiledSpec` (compile/lazy.hpp); simulators call
/// `compile_pair` exactly when `find` reports an unregistered pair.
/// `compile_pair` is internally synchronized (sharded by receiver id) and
/// may be called from any number of simulator threads; losing a compile
/// race is fine — the winner's cell is found on re-lookup.
class JitCompiler {
 public:
  virtual ~JitCompiler() = default;
  virtual void compile_pair(std::uint32_t receiver, std::uint32_t sender) = 0;
  virtual const ConcurrentDispatchTable& table() const = 0;
  virtual const FiniteSpec& spec() const = 0;
};

}  // namespace pops
