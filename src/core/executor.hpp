// Process-wide work-stealing executor.
//
// Every parallel layer in the repo used to own its threads: the trial
// harness spawned a pool per run_trials_parallel call, the eager compiler
// spawned one per frontier batch, and nested harnesses (trials that compile
// inside the pool, lazy trials sharing a JIT table) oversubscribed the
// machine multiplicatively.  `Executor` replaces all of that with one
// lazily-started pool the whole process shares:
//
//   * one Chase–Lev deque per worker (lock-free owner push/pop, CAS-
//     arbitrated steal) plus a mutex-protected global injection queue for
//     submissions from non-worker threads;
//   * `TaskGroup` for structured fan-out: `run()` submits, `wait()` blocks
//     until every task of the group finished — and *helps*, executing
//     queued tasks while it waits.  That help loop is what makes recursive
//     submission safe: a task running on the pool can fan out a nested
//     group and wait on it without deadlock (its wait() runs the subtasks
//     itself if no other worker picks them up) and without spawning a
//     single extra thread;
//   * `set_threads()` overrides the width process-wide — every client
//     (run_trials_parallel, ProtocolCompiler::compile, the lazy
//     equivalence/bench fan-out) sizes itself off `threads()`, so one call
//     (or the POPS_THREADS environment variable) pins the whole process to
//     a reproducible budget.
//
// Width semantics: `threads()` is the *total* parallelism, counting the
// caller.  The pool spawns threads()-1 workers on first submission and the
// submitting thread contributes itself through TaskGroup::wait()'s help
// loop, so a width-W executor never runs more than W tasks concurrently —
// and nested fan-out reuses the same W threads instead of multiplying
// them.  Width 1 spawns no workers at all: tasks queue and run inline in
// wait(), which is what makes serial reference runs genuinely serial.
//
// Determinism contract: the executor schedules, clients decide what that
// means.  Both migrated closure strategies are bit-identical at any width
// (trials index their results and derive per-trial seeds; the eager
// closure merges worker discoveries in deterministic pair order), so
// set_threads() changes wall-clock, never output
// (tests/test_executor.cpp, tests/test_jit_concurrency.cpp).
//
// set_threads() requires a quiescent pool (no queued or running tasks) —
// call it between fan-outs, as the benches and tests do.
#pragma once

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/require.hpp"

namespace pops {

class Executor {
 public:
  class TaskGroup;

  /// The one process-wide instance (created on first use, workers joined at
  /// static destruction).
  static Executor& instance() {
    static Executor ex;
    return ex;
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() { stop_workers(); }

  /// Effective width: the number of tasks that can run concurrently,
  /// counting the calling thread (see the width semantics above).
  unsigned threads() const { return threads_.load(std::memory_order_acquire); }

  /// Override the process-wide width (0 restores the default: POPS_THREADS
  /// if set, hardware concurrency otherwise).  Requires a quiescent pool;
  /// running workers are joined and the pool restarts lazily at the new
  /// width.  All clients observe the change on their next fan-out.
  static void set_threads(unsigned n) { instance().set_threads_impl(n); }

  /// Largest width POPS_THREADS may request.
  static constexpr unsigned kMaxThreads = 1024;

  /// Parse a POPS_THREADS value: the whole string must be a decimal integer
  /// in [1, kMaxThreads].  Anything else ("8x", "abc", "0", "-3", a huge
  /// count) throws std::invalid_argument naming the variable, rather than
  /// silently running at some other width.
  static unsigned parse_threads(std::string_view text) {
    unsigned n = 0;
    const auto [end, err] = std::from_chars(text.data(), text.data() + text.size(), n);
    if (err != std::errc() || end != text.data() + text.size() || n < 1 ||
        n > kMaxThreads) {
      throw std::invalid_argument("POPS_THREADS must be an integer in [1, " +
                                  std::to_string(kMaxThreads) + "], got '" +
                                  std::string(text) + "'");
    }
    return n;
  }

  /// True on a pool worker thread (not on external threads, even while
  /// they help-run tasks inside TaskGroup::wait()).
  static bool on_worker_thread() { return tl_worker_ != nullptr; }

  /// Structured fan-out handle.  Submit with run(), then wait() exactly
  /// once; wait() helps execute queued tasks (any group's — that is what
  /// makes nested groups deadlock-free) and rethrows the first exception a
  /// task of *this* group threw.  The group must outlive its tasks, which
  /// wait() guarantees; the destructor waits too if the caller forgot.
  class TaskGroup {
   public:
    explicit TaskGroup(Executor& ex = Executor::instance()) : ex_(ex) {}

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    ~TaskGroup() {
      try {
        wait();
      } catch (...) {
        // wait() already ran every task; a stray exception from an
        // un-waited group must not escape a destructor.
      }
    }

    /// Submit one task.  Safe from any thread, including from inside
    /// another task of this or any other group (recursive submission).
    void run(std::function<void()> fn) {
      pending_.fetch_add(1, std::memory_order_acq_rel);
      ex_.submit(new Task{std::move(fn), this});
    }

    /// Block until every submitted task finished, executing queued tasks
    /// while waiting.  Rethrows the first exception captured from this
    /// group's tasks.  May be called from inside a pool task.
    void wait() {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (pending_.load(std::memory_order_acquire) == 0) break;
        }
        if (Task* t = ex_.find_task()) {
          ex_.run_task(t);
          continue;
        }
        // Nothing runnable anywhere: the outstanding tasks are being
        // executed on other threads.  Doze with a short timeout — the
        // timeout (not just the notify) also covers "a task became
        // stealable elsewhere while we slept".
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return pending_.load(std::memory_order_acquire) == 0;
        });
      }
      std::exception_ptr error;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        error = std::exchange(error_, nullptr);
      }
      if (error) std::rethrow_exception(error);
    }

   private:
    friend class Executor;

    void capture(std::exception_ptr e) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::move(e);
    }

    /// Called after a task's body ran.  The decrement holds the group
    /// mutex so a waiter cannot observe pending == 0, return, and destroy
    /// the group while this thread is still inside it.
    void finish_one() {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) cv_.notify_all();
    }

    Executor& ex_;
    std::atomic<std::uint64_t> pending_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::exception_ptr error_;
  };

  /// Convenience fan-out: split [begin, end) into contiguous ranges of at
  /// most `chunk` and run fn(chunk_index, lo, hi) as tasks (the calling
  /// thread helps).  Runs inline when the range fits one chunk or the
  /// width is 1.
  template <typename Fn>
  static void parallel_chunks(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t chunk, Fn&& fn) {
    POPS_REQUIRE(chunk > 0, "parallel_chunks: chunk must be positive");
    Executor& ex = instance();
    if (end <= begin) return;
    if (ex.threads() == 1 || end - begin <= chunk) {
      std::uint64_t index = 0;
      for (std::uint64_t lo = begin; lo < end; lo += chunk, ++index) {
        fn(index, lo, std::min(end, lo + chunk));
      }
      return;
    }
    TaskGroup group(ex);
    std::uint64_t index = 0;
    for (std::uint64_t lo = begin; lo < end; lo += chunk, ++index) {
      const std::uint64_t hi = std::min(end, lo + chunk);
      group.run([&fn, index, lo, hi] { fn(index, lo, hi); });
    }
    group.wait();
  }

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  /// Chase–Lev work-stealing deque of Task* (Chase & Lev, SPAA'05).  The
  /// owner pushes and pops at the bottom without locks; thieves CAS the
  /// top.  seq_cst on top/bottom keeps the classic pop/steal arbitration
  /// simple and ThreadSanitizer-clean (no standalone fences, which TSan
  /// does not model); the deque holds whole trials or pair-chunk sweeps,
  /// so its constant factors are irrelevant.
  class Deque {
   public:
    Deque() {
      buffers_.push_back(std::make_unique<Buffer>(std::size_t{1} << 8));
      buffer_.store(buffers_.back().get(), std::memory_order_release);
    }

    /// Owner only.
    void push(Task* t) {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed);
      const std::int64_t top = top_.load(std::memory_order_acquire);
      Buffer* buf = buffer_.load(std::memory_order_relaxed);
      if (b - top > static_cast<std::int64_t>(buf->mask)) buf = grow(buf, top, b);
      buf->slots[static_cast<std::uint64_t>(b) & buf->mask].store(
          t, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }

    /// Owner only.
    Task* pop() {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      Buffer* buf = buffer_.load(std::memory_order_relaxed);
      bottom_.store(b, std::memory_order_seq_cst);
      std::int64_t top = top_.load(std::memory_order_seq_cst);
      if (top > b) {  // empty: restore
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
      }
      Task* t = buf->slots[static_cast<std::uint64_t>(b) & buf->mask].load(
          std::memory_order_relaxed);
      if (top != b) return t;  // more than one element left; no race possible
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        t = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
      return t;
    }

    /// Any thread.
    Task* steal() {
      std::int64_t top = top_.load(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (top >= b) return nullptr;
      Buffer* buf = buffer_.load(std::memory_order_acquire);
      Task* t = buf->slots[static_cast<std::uint64_t>(top) & buf->mask].load(
          std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;  // lost the race; caller retries elsewhere
      }
      return t;
    }

   private:
    struct Buffer {
      explicit Buffer(std::size_t capacity)
          : mask(capacity - 1), slots(new std::atomic<Task*>[capacity]) {}
      const std::uint64_t mask;  ///< capacity - 1 (capacity a power of two)
      std::unique_ptr<std::atomic<Task*>[]> slots;
    };

    /// Double the ring.  Old buffers stay allocated until the deque dies —
    /// a thief may still be reading them; total retired memory is
    /// geometric in the peak size.
    Buffer* grow(Buffer* old, std::int64_t top, std::int64_t b) {
      buffers_.push_back(std::make_unique<Buffer>((old->mask + 1) * 2));
      Buffer* buf = buffers_.back().get();
      for (std::int64_t i = top; i < b; ++i) {
        buf->slots[static_cast<std::uint64_t>(i) & buf->mask].store(
            old->slots[static_cast<std::uint64_t>(i) & old->mask].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      buffer_.store(buf, std::memory_order_release);
      return buf;
    }

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Buffer*> buffer_{nullptr};
    std::vector<std::unique_ptr<Buffer>> buffers_;  ///< owner-mutated (push/grow only)
  };

  struct Worker {
    Deque deque;
    std::size_t index = 0;
  };

  Executor() : threads_(default_threads()) {}

  static unsigned default_threads() {
    if (const char* env = std::getenv("POPS_THREADS")) return parse_threads(env);
    return std::max(1u, std::thread::hardware_concurrency());
  }

  void set_threads_impl(unsigned n) {
    if (n == 0) n = default_threads();
    std::lock_guard<std::mutex> lock(config_mutex_);
    POPS_REQUIRE(queued_.load(std::memory_order_acquire) == 0 &&
                     active_.load(std::memory_order_acquire) == 0,
                 "Executor::set_threads requires a quiescent pool (no queued "
                 "or running tasks)");
    if (n == threads_.load(std::memory_order_relaxed)) return;
    stop_workers_locked();
    threads_.store(n, std::memory_order_release);
  }

  void submit(Task* t) {
    start_workers_if_needed();
    queued_.fetch_add(1, std::memory_order_acq_rel);
    if (tl_owner_ == this && tl_worker_ != nullptr) {
      tl_worker_->deque.push(t);
    } else {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      injection_.push_back(t);
    }
    // The epoch bump (under the mutex sleeping workers hold while they
    // check it) is what makes idle sleeps untimed-safe: a worker either
    // saw this submission's epoch before dozing — and then its pre-sleep
    // scan could already see the pushed task — or it finds the epoch
    // advanced and rescans instead of sleeping.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      ++submit_epoch_;
    }
    queue_cv_.notify_one();
  }

  /// Pop/steal one runnable task: own deque (workers), then the injection
  /// queue, then the other workers' deques.  Returns nullptr when nothing
  /// is runnable right now.
  Task* find_task() {
    Worker* self = tl_owner_ == this ? tl_worker_ : nullptr;
    Task* t = nullptr;
    if (self != nullptr) t = self->deque.pop();
    if (t == nullptr) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!injection_.empty()) {
        t = injection_.front();
        injection_.pop_front();
      }
    }
    if (t == nullptr) {
      // Snapshot the pool under config_mutex_-free reads: workers_ only
      // mutates while quiescent (set_threads/stop), when no find_task can
      // be running.
      const std::size_t n = worker_count_.load(std::memory_order_acquire);
      const std::size_t start = self != nullptr ? self->index + 1 : 0;
      for (std::size_t i = 0; i < n && t == nullptr; ++i) {
        Worker* victim = workers_[(start + i) % n].get();
        if (victim != self) t = victim->deque.steal();
      }
    }
    if (t != nullptr) queued_.fetch_sub(1, std::memory_order_acq_rel);
    return t;
  }

  void run_task(Task* t) {
    active_.fetch_add(1, std::memory_order_acq_rel);
    TaskGroup* group = t->group;
    try {
      t->fn();
    } catch (...) {
      group->capture(std::current_exception());
    }
    delete t;
    active_.fetch_sub(1, std::memory_order_acq_rel);
    group->finish_one();
  }

  void start_workers_if_needed() {
    if (started_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(config_mutex_);
    if (started_.load(std::memory_order_relaxed)) return;
    const unsigned width = threads_.load(std::memory_order_relaxed);
    workers_.clear();
    for (unsigned w = 0; w + 1 < width; ++w) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->index = w;
    }
    worker_count_.store(workers_.size(), std::memory_order_release);
    threads_started_.reserve(workers_.size());
    for (auto& w : workers_) {
      threads_started_.emplace_back([this, worker = w.get()] { worker_loop(worker); });
    }
    started_.store(true, std::memory_order_release);
  }

  void worker_loop(Worker* self) {
    tl_worker_ = self;
    tl_owner_ = this;
    for (;;) {
      std::uint64_t seen;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        seen = submit_epoch_;
      }
      if (stop_.load(std::memory_order_acquire)) break;
      if (Task* t = find_task()) {
        run_task(t);
        continue;
      }
      // Untimed doze — an idle pool costs zero wakeups (the pool lives for
      // the whole process, so a polling fallback here would perturb every
      // single-threaded bench timing).  No lost wakeup: any submission
      // after the `seen` read advances the epoch and fails the predicate;
      // any submission before it was visible to the find_task scan above.
      // No spin either: one scan per epoch advance at most.
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || submit_epoch_ != seen;
      });
      if (stop_.load(std::memory_order_acquire)) break;
    }
    tl_worker_ = nullptr;
    tl_owner_ = nullptr;
  }

  void stop_workers() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    stop_workers_locked();
  }

  void stop_workers_locked() {
    if (!started_.load(std::memory_order_relaxed)) return;
    stop_.store(true, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(queue_mutex_); }
    queue_cv_.notify_all();
    for (auto& th : threads_started_) th.join();
    threads_started_.clear();
    worker_count_.store(0, std::memory_order_release);
    workers_.clear();
    stop_.store(false, std::memory_order_release);
    started_.store(false, std::memory_order_release);
  }

  inline static thread_local Worker* tl_worker_ = nullptr;
  inline static thread_local Executor* tl_owner_ = nullptr;

  std::atomic<unsigned> threads_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> queued_{0};  ///< submitted, not yet dequeued
  std::atomic<std::uint64_t> active_{0};  ///< task bodies currently running
  std::atomic<std::size_t> worker_count_{0};
  std::mutex config_mutex_;  ///< pool start/stop/resize
  std::mutex queue_mutex_;   ///< injection queue + sleep coordination
  std::condition_variable queue_cv_;
  std::uint64_t submit_epoch_ = 0;  ///< bumped per submission, under queue_mutex_
  std::deque<Task*> injection_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_started_;
};

}  // namespace pops
