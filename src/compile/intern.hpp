// Typed-state interning: canonical field tuples hashed directly.
//
// The compiler originally interned states through one
// `unordered_map<std::string, id>` keyed on `state_label` — which meant an
// snprintf + heap string + byte-wise hash per *path output*, ~2 intern calls
// per explored branch (measured: the majority of eager compile time on the
// multi-thousand-state presets).  This header replaces that with a typed
// key:
//
//   * `StateKeyBuf` — a small inline tuple of u64 words.  A protocol packs
//     its canonical (saturated) fields into it via an optional `state_key`
//     hook; the packing must be injective exactly where `state_label` is
//     (same contract, no strings).  Protocols without the hook fall back to
//     packing the label's bytes, so every CompilableProtocol still interns
//     through the one code path.
//   * `StateInterner` — an open-addressing arena keyed on the word tuple.
//     States, key words and per-state metadata live in `StableArena`s
//     (stable addresses), and the slot table is published atomically, so
//     lookups are lock-free and safe concurrent with inserts — the property
//     the sharded JIT (compile/lazy.hpp) and the parallel eager closure
//     (compile/compiler.hpp) are built on.  Inserts serialize on one mutex;
//     the hit path (the overwhelmingly common case once the state space is
//     warm) takes no lock.
//
// String labels are still produced — once per *unique* state, on first
// insertion — because the `FiniteSpec` name registry is the debug/golden
// surface; they are just no longer on the per-path hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/require.hpp"
#include "sim/stable_arena.hpp"

namespace pops {

/// Canonical key of one state: up to kMaxWords u64 words pushed by the
/// protocol's `state_key` hook (or packed from the label as a fallback).
class StateKeyBuf {
 public:
  static constexpr std::uint32_t kMaxWords = 32;

  void clear() { len_ = 0; }

  void push(std::uint64_t word) {
    POPS_REQUIRE(len_ < kMaxWords,
                 "state key too long: pack fields tighter in state_key(), or "
                 "shorten state_label() for the label fallback");
    words_[len_++] = word;
  }

  /// Label fallback: the string's length word followed by its bytes packed
  /// 8 per word (zero-padded; unambiguous given the length word).
  void push_label(const std::string& label) {
    push(static_cast<std::uint64_t>(label.size()));
    for (std::size_t i = 0; i < label.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, label.data() + i, std::min<std::size_t>(8, label.size() - i));
      push(w);
    }
  }

  const std::uint64_t* data() const { return words_.data(); }
  std::uint32_t size() const { return len_; }

  /// SplitMix64-style mix over the words (and the length).
  std::uint64_t hash() const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ (static_cast<std::uint64_t>(len_) << 32);
    for (std::uint32_t i = 0; i < len_; ++i) {
      std::uint64_t x = words_[i] + 0x9E3779B97F4A7C15ULL + h;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      h = x ^ (x >> 31);
    }
    return h;
  }

 private:
  std::array<std::uint64_t, kMaxWords> words_;
  std::uint32_t len_ = 0;
};

/// A protocol that packs its canonical fields into a StateKeyBuf directly.
/// The packing must be injective on saturated states (the `state_label`
/// contract, minus the string).
template <typename P>
concept KeyedProtocol = requires(const P p, const typename P::State& s, StateKeyBuf& k) {
  p.state_key(s, k);
};

/// Build the canonical key for `s`: the typed hook when the protocol has
/// one, the packed label bytes otherwise.
template <typename P>
void build_state_key(const P& proto, const typename P::State& s, StateKeyBuf& key) {
  key.clear();
  if constexpr (KeyedProtocol<P>) {
    proto.state_key(s, key);
  } else {
    key.push_label(proto.state_label(s));
  }
}

/// Open-addressing arena mapping canonical state keys to dense ids, with
/// lock-free lookup concurrent with (mutex-serialized) insertion.  Ids are
/// assigned in insertion order; `operator[]` returns the typed
/// representative (stable address for the interner's lifetime).
template <typename State>
class StateInterner {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  explicit StateInterner(std::size_t max_states)
      : max_states_(max_states),
        states_(max_states),
        meta_(max_states),
        key_words_(max_states * StateKeyBuf::kMaxWords) {
    POPS_REQUIRE(max_states < kNotFound, "max_states out of id range");
    // Meta::key_off is 32-bit; cap max_states so the key-word arena can
    // never outgrow it (kMaxWords words/state ⇒ ≲134M states — far beyond
    // any compilable closure) rather than silently wrapping offsets.
    POPS_REQUIRE(max_states <= 0xFFFFFFFFull / StateKeyBuf::kMaxWords,
                 "max_states too large for 32-bit key-word offsets");
    tables_.push_back(std::make_unique<Table>(std::size_t{1} << 10));
    table_.store(tables_.back().get(), std::memory_order_release);
  }

  StateInterner(const StateInterner&) = delete;
  StateInterner& operator=(const StateInterner&) = delete;

  /// Number of interned states (acquire: states_[i] is readable for i < size).
  std::uint32_t size() const { return static_cast<std::uint32_t>(states_.size()); }

  const State& operator[](std::uint32_t id) const { return states_[id]; }

  /// Lock-free lookup; kNotFound when the key is not interned.  Safe
  /// concurrent with intern() from other threads.
  std::uint32_t find(const StateKeyBuf& key, std::uint64_t hash) const {
    return find_in(*table_.load(std::memory_order_acquire), key, hash);
  }

  /// Find-or-insert.  `on_insert(state)` runs under the insert mutex for
  /// states new to the interner — the hook that registers the string label
  /// with the FiniteSpec name registry, in id order.  It runs before the
  /// state is stored, so a hook that throws leaves the interner unchanged.
  template <typename OnInsert>
  std::uint32_t intern(const State& s, const StateKeyBuf& key, std::uint64_t hash,
                       OnInsert&& on_insert) {
    std::lock_guard<std::mutex> lock(mutex_);
    Table* t = table_.load(std::memory_order_relaxed);
    const std::uint32_t existing = find_in(*t, key, hash);
    if (existing != kNotFound) return existing;
    const std::uint32_t id = static_cast<std::uint32_t>(states_.size());
    POPS_REQUIRE(id < max_states_,
                 "state-space explosion: raise CompileOptions.max_states or "
                 "lower the field caps");
    on_insert(s);
    // Grow before appending the new state: the rehash walks states_, so
    // growing after the push would re-insert the new id and leave a
    // duplicate slot behind.
    if ((static_cast<std::uint64_t>(id) + 1) * 4 >= (t->mask + 1) * 3) t = grow_table();
    const std::uint32_t off = static_cast<std::uint32_t>(key_words_.size());
    for (std::uint32_t i = 0; i < key.size(); ++i) key_words_.push(key.data()[i]);
    meta_.push(Meta{hash, off, key.size()});
    states_.push(s);
    insert_slot(*t, hash, id + 1);
    return id;
  }

  std::vector<State> snapshot() const {
    const std::uint32_t n = size();
    std::vector<State> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(states_[i]);
    return out;
  }

 private:
  struct Meta {
    std::uint64_t hash = 0;
    std::uint32_t key_off = 0;
    std::uint32_t key_len = 0;
  };

  struct Table {
    explicit Table(std::size_t capacity)
        : mask(capacity - 1), slots(new std::atomic<std::uint32_t>[capacity]) {
      for (std::size_t i = 0; i < capacity; ++i) {
        slots[i].store(0, std::memory_order_relaxed);
      }
    }
    const std::uint64_t mask;  ///< capacity - 1 (capacity is a power of two)
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;  ///< id + 1; 0 = empty
  };

  std::uint32_t find_in(const Table& t, const StateKeyBuf& key, std::uint64_t hash) const {
    for (std::uint64_t idx = hash & t.mask;; idx = (idx + 1) & t.mask) {
      const std::uint32_t v = t.slots[idx].load(std::memory_order_acquire);
      if (v == 0) return kNotFound;
      const std::uint32_t id = v - 1;
      const Meta& m = meta_[id];
      if (m.hash == hash && m.key_len == key.size() && key_equals(m, key)) return id;
    }
  }

  bool key_equals(const Meta& m, const StateKeyBuf& key) const {
    for (std::uint32_t i = 0; i < m.key_len; ++i) {
      if (key_words_[m.key_off + i] != key.data()[i]) return false;
    }
    return true;
  }

  static void insert_slot(Table& t, std::uint64_t hash, std::uint32_t value) {
    std::uint64_t idx = hash & t.mask;
    while (t.slots[idx].load(std::memory_order_relaxed) != 0) idx = (idx + 1) & t.mask;
    t.slots[idx].store(value, std::memory_order_release);
  }

  /// Double the slot table and republish (old tables stay alive for
  /// concurrent readers; total retired memory is geometric in the final size).
  Table* grow_table() {
    const Table* old = table_.load(std::memory_order_relaxed);
    tables_.push_back(std::make_unique<Table>((old->mask + 1) * 2));
    Table* t = tables_.back().get();
    const std::uint32_t n = static_cast<std::uint32_t>(states_.size());
    for (std::uint32_t id = 0; id < n; ++id) insert_slot(*t, meta_[id].hash, id + 1);
    table_.store(t, std::memory_order_release);
    return t;
  }

  std::size_t max_states_;
  StableArena<State> states_;
  StableArena<Meta> meta_;
  StableArena<std::uint64_t, std::size_t{1} << 16> key_words_;
  std::vector<std::unique_ptr<Table>> tables_;  ///< all tables ever published
  std::atomic<Table*> table_;
  std::mutex mutex_;
};

}  // namespace pops
