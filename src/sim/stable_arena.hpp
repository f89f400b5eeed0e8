// Append-only chunked storage with stable element addresses.
//
// The concurrent compile pipeline (compile/intern.hpp, sim/dispatch.hpp)
// needs containers that grow while other threads read them.  std::vector
// cannot do this — push_back reallocates, invalidating every concurrent
// reader — so `StableArena<T>` stores elements in fixed-size blocks whose
// addresses never change, behind a block-pointer directory whose capacity is
// fixed at construction (the directory vector itself never reallocates).
//
// Concurrency contract:
//   * appends (`push`) must be serialized by the caller (one writer at a
//     time — the interner and the JIT table both append under a mutex);
//   * indexed reads are lock-free and safe concurrent with appends, for any
//     index the reader learned through a release/acquire edge: either
//     `size()` (released by `push`) or a pointer/index published by the
//     caller *after* `push` returned (e.g. a dispatch-row slot).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/require.hpp"

namespace pops {

/// Blocks hold `kBlock` elements; a compile-time size keeps the index split
/// a shift and a mask on the dispatch-table lookup path.
template <typename T, std::size_t kBlock = 4096>
class StableArena {
 public:
  /// `max_elems` bounds the arena (the directory is sized for it up front);
  /// blocks are allocated on demand.
  explicit StableArena(std::size_t max_elems) : blocks_((max_elems + kBlock - 1) / kBlock + 1) {}

  StableArena(const StableArena&) = delete;
  StableArena& operator=(const StableArena&) = delete;

  ~StableArena() {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) slot(i)->~T();
    for (T*& b : blocks_) {
      if (b != nullptr) ::operator delete(b, std::align_val_t{alignof(T)});
    }
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Element access; `i` must have been published to this thread (see the
  /// concurrency contract above).
  const T& operator[](std::size_t i) const { return *slot(i); }
  T& mutable_ref(std::size_t i) { return *slot(i); }

  /// Append one element and publish the new size; returns the element's
  /// index.  Callers must serialize push() invocations.
  std::size_t push(T value) {
    const std::size_t i = size_.load(std::memory_order_relaxed);
    const std::size_t b = i / kBlock;
    POPS_REQUIRE(b < blocks_.size(), "StableArena capacity exceeded");
    if (blocks_[b] == nullptr) {
      blocks_[b] = static_cast<T*>(
          ::operator new(kBlock * sizeof(T), std::align_val_t{alignof(T)}));
    }
    new (blocks_[b] + (i % kBlock)) T(std::move(value));
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

 private:
  T* slot(std::size_t i) const { return blocks_[i / kBlock] + (i % kBlock); }

  std::vector<T*> blocks_;  ///< fixed-capacity directory; never reallocates
  std::atomic<std::size_t> size_{0};
};

}  // namespace pops
