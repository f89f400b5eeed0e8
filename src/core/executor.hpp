// Process-wide task executor.
//
// Every parallel layer in the repo used to own its threads: the trial
// harness spawned a pool per run_trials_parallel call, the eager compiler
// spawned one per frontier batch, and nested harnesses (trials that compile
// inside the pool, lazy trials sharing a JIT table) oversubscribed the
// machine multiplicatively.  `Executor` replaces all of that with one
// lazily-started pool the whole process shares:
//
//   * one FIFO task queue under one mutex; idle workers block on its
//     condition variable.  The clients hand out coarse work themselves
//     (trials from an atomic index, pair chunks from an atomic cursor), so
//     each fan-out submits a few tasks per thread and the queue lock is
//     never contended enough to matter;
//   * `TaskGroup` for structured fan-out: `run()` submits, `wait()` blocks
//     until every task of the group finished — and *helps*, executing
//     queued tasks while it waits.  The task it runs may belong to any
//     group, not just its own.  That help loop is what makes recursive
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
// means.  Both closure strategies are bit-identical at any width (trials
// index their results and derive per-trial seeds; the eager closure merges
// worker discoveries in deterministic pair order), so set_threads()
// changes wall-clock, never output (tests/test_executor.cpp,
// tests/test_jit_concurrency.cpp).
//
// set_threads() requires a quiescent pool (no queued or running tasks) —
// call it between fan-outs, as the benches and tests do.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
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

  /// Structured fan-out handle on the process-wide executor.  Submit with
  /// run(), then wait() exactly once; wait() helps execute queued tasks
  /// (any group's — that is what makes nested groups deadlock-free) and
  /// rethrows the first exception a task of *this* group threw.  The group
  /// must outlive its tasks, which wait() guarantees; the destructor waits
  /// too if the caller forgot.
  class TaskGroup {
   public:
    TaskGroup() = default;

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
      Executor::instance().submit(new Task{std::move(fn), this});
    }

    /// Block until every submitted task finished, executing queued tasks
    /// while waiting.  Rethrows the first exception captured from this
    /// group's tasks.  May be called from inside a pool task.
    void wait() {
      Executor& ex = Executor::instance();
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (pending_.load(std::memory_order_acquire) == 0) break;
        }
        if (Task* t = ex.try_pop()) {
          ex.run_task(t);
          continue;
        }
        // Nothing queued: the outstanding tasks are being executed on
        // other threads.  Doze with a short timeout — the timeout (not
        // just the notify) also covers "one of those tasks queued a nested
        // task while we slept", since submissions wake workers, not
        // waiters.
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

    std::atomic<std::uint64_t> pending_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::exception_ptr error_;
  };

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  Executor() : threads_(default_threads()) {}

  static unsigned default_threads() {
    if (const char* env = std::getenv("POPS_THREADS")) return parse_threads(env);
    return std::max(1u, std::thread::hardware_concurrency());
  }

  void set_threads_impl(unsigned n) {
    if (n == 0) n = default_threads();
    std::lock_guard<std::mutex> lock(config_mutex_);
    {
      std::lock_guard<std::mutex> queue_lock(queue_mutex_);
      POPS_REQUIRE(queue_.empty() && active_.load(std::memory_order_acquire) == 0,
                   "Executor::set_threads requires a quiescent pool (no queued "
                   "or running tasks)");
    }
    if (n == threads_.load(std::memory_order_relaxed)) return;
    stop_workers_locked();
    threads_.store(n, std::memory_order_release);
  }

  void submit(Task* t) {
    start_workers_if_needed();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(t);
    }
    queue_cv_.notify_one();
  }

  /// Pop the oldest queued task, or nullptr when the queue is empty.  The
  /// task counts as active from here until run_task finishes it, so the
  /// quiescence check never sees a dequeued task as gone.
  Task* try_pop() {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return pop_locked();
  }

  Task* pop_locked() {
    if (queue_.empty()) return nullptr;
    Task* t = queue_.front();
    queue_.pop_front();
    active_.fetch_add(1, std::memory_order_acq_rel);
    return t;
  }

  void run_task(Task* t) {
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
    for (unsigned w = 0; w + 1 < width; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    started_.store(true, std::memory_order_release);
  }

  /// Untimed sleep: an idle pool costs zero wakeups (the pool lives for the
  /// whole process, so a polling fallback here would perturb every
  /// single-threaded bench timing).  No lost wakeup: submit() pushes under
  /// queue_mutex_, which the predicate is checked under.
  void worker_loop() {
    for (;;) {
      Task* t = nullptr;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        t = pop_locked();
      }
      run_task(t);
    }
  }

  void stop_workers() {
    std::lock_guard<std::mutex> lock(config_mutex_);
    stop_workers_locked();
  }

  void stop_workers_locked() {
    if (!started_.load(std::memory_order_relaxed)) return;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (auto& th : workers_) th.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_ = false;
    }
    started_.store(false, std::memory_order_release);
  }

  std::atomic<unsigned> threads_;
  std::atomic<bool> started_{false};
  std::mutex config_mutex_;  ///< pool start/stop/resize
  std::mutex queue_mutex_;   ///< guards queue_ and stop_
  std::condition_variable queue_cv_;
  std::deque<Task*> queue_;
  std::atomic<std::uint64_t> active_{0};  ///< dequeued, body not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pops
