// Tests for the process-wide executor (core/executor.hpp):
//
//   * nested submission — a task running on the pool fans out a nested
//     TaskGroup (trials that compile inside the pool) and waits on it
//     without deadlock, and the whole nest runs on the executor's threads
//     only (no oversubscription, whatever the nesting depth);
//   * concurrency bound — a flat fan-out never has more than threads()
//     task bodies running at once;
//   * width override — Executor::set_threads() restarts the pool at the
//     new width and every client (run_trials_parallel, the eager closure)
//     observes it on its next fan-out;
//   * determinism — eager compiles are bit-identical and parallel trials
//     per-seed invariant at widths 1, 2 and 8 (the contract that lets
//     set_threads change wall-clock, never output);
//   * exception propagation — a throwing trial/task surfaces at wait()
//     exactly once, after every sibling finished, and a compile whose
//     parallel closure round throws leaves the pool quiescent;
//   * POPS_THREADS parsing — malformed or out-of-range values throw instead
//     of silently picking some other width (checked on strings only, so no
//     pool ever starts at an extreme width).
//
// Also runs under the TSan preset (scripts/tsan_check.sh), which is what
// exercises the shared task queue, the worker sleep/wake handshake and the
// help-while-waiting protocol under the race detector.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "core/executor.hpp"
#include "harness/equivalence.hpp"
#include "harness/trials.hpp"

namespace pops {
namespace {

using LS = LogSizeEstimation;
using BLS = Bounded<LS>;

/// Pin the executor width for a test body and restore the default after.
class WidthGuard {
 public:
  explicit WidthGuard(unsigned width) { Executor::set_threads(width); }
  ~WidthGuard() { Executor::set_threads(0); }
};

/// Distinct OS threads observed executing some instrumented region.
class ThreadTracker {
 public:
  void note() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
  }
  std::size_t count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ids_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::thread::id> ids_;
};

TEST(Executor, RunsEverySubmittedTask) {
  WidthGuard width(4);
  std::atomic<std::uint64_t> ran{0};
  Executor::TaskGroup group;
  for (int i = 0; i < 100; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100u);
}

TEST(Executor, SetThreadsRestartsThePool) {
  for (const unsigned width : {1u, 2u, 8u, 3u}) {
    Executor::set_threads(width);
    EXPECT_EQ(Executor::instance().threads(), width);
    std::atomic<std::uint64_t> ran{0};
    Executor::TaskGroup group;
    for (int i = 0; i < 16; ++i) {
      group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 16u) << "width=" << width;
  }
  Executor::set_threads(0);
  EXPECT_GE(Executor::instance().threads(), 1u);
}

TEST(Executor, NestedGroupsCompleteWithoutDeadlockOrOversubscription) {
  WidthGuard width(4);
  ThreadTracker tracker;
  std::atomic<std::uint64_t> leaves{0};
  // Three levels of fan-out, every level waiting on the next from inside a
  // pool task: 4 * 4 * 4 leaves.  With per-call thread pools this nest
  // would have tried to spawn 4 + 16 + 64 threads; on the executor it must
  // finish on at most threads() of them (workers + the caller).
  Executor::TaskGroup root;
  for (int a = 0; a < 4; ++a) {
    root.run([&] {
      tracker.note();
      Executor::TaskGroup mid;
      for (int b = 0; b < 4; ++b) {
        mid.run([&] {
          tracker.note();
          Executor::TaskGroup leaf;
          for (int c = 0; c < 4; ++c) {
            leaf.run([&] {
              tracker.note();
              leaves.fetch_add(1, std::memory_order_relaxed);
            });
          }
          leaf.wait();
        });
      }
      mid.wait();
    });
  }
  root.wait();
  EXPECT_EQ(leaves.load(), 64u);
  EXPECT_LE(tracker.count(), Executor::instance().threads());
}

TEST(Executor, FlatFanOutNeverRunsMoreTasksThanTheWidth) {
  for (const unsigned width : {2u, 3u}) {
    WidthGuard guard(width);
    std::atomic<unsigned> active{0};
    std::atomic<unsigned> peak{0};
    std::atomic<std::uint64_t> ran{0};
    Executor::TaskGroup group;
    for (int i = 0; i < 64; ++i) {
      group.run([&] {
        const unsigned now = active.fetch_add(1) + 1;
        unsigned seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        // Hold the slot long enough that workers and the waiting caller
        // overlap, so an extra runner would show in the peak.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        active.fetch_sub(1);
        ran.fetch_add(1);
      });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 64u) << "width=" << width;
    EXPECT_LE(peak.load(), Executor::instance().threads()) << "width=" << width;
  }
}

TEST(Executor, TrialsThatCompileInsideThePoolComplete) {
  WidthGuard width(4);
  const auto proto = log_size_tiny();
  const auto reference = ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile(1);
  ThreadTracker tracker;
  // Each trial eagerly compiles the preset *inside* a pool task — the
  // nested harness shape the ROADMAP flagged as oversubscribing: closure
  // rounds submit sub-tasks to the same executor the trials run on.
  const auto totals = run_trials_parallel(
      4, 0xAB5, [&](std::uint64_t, std::uint64_t) {
        tracker.note();
        const auto compiled =
            ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
        return static_cast<std::uint64_t>(compiled.num_states()) * 1000000u +
               compiled.num_transitions();
      });
  for (const auto total : totals) {
    EXPECT_EQ(total, static_cast<std::uint64_t>(reference.num_states()) * 1000000u +
                         reference.num_transitions());
  }
  EXPECT_LE(tracker.count(), Executor::instance().threads());
}

TEST(Executor, EagerCompileIsBitIdenticalAcrossWidths) {
  const auto proto = log_size_tiny();
  WidthGuard restore(1);  // dtor restores the default even on ASSERT bailout
  const auto ref = ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
  for (const unsigned width : {2u, 8u}) {
    Executor::set_threads(width);
    const auto got = ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
    ASSERT_EQ(ref.num_states(), got.num_states()) << "width=" << width;
    for (std::uint32_t i = 0; i < ref.num_states(); ++i) {
      ASSERT_EQ(ref.spec.name(i), got.spec.name(i)) << "width=" << width;
    }
    const auto& ta = ref.spec.transitions();
    const auto& tb = got.spec.transitions();
    ASSERT_EQ(ta.size(), tb.size()) << "width=" << width;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_TRUE(ta[i].in_receiver == tb[i].in_receiver &&
                  ta[i].in_sender == tb[i].in_sender &&
                  ta[i].out_receiver == tb[i].out_receiver &&
                  ta[i].out_sender == tb[i].out_sender && ta[i].rate == tb[i].rate)
          << "transition " << i << " diverged at width=" << width;
    }
    EXPECT_EQ(ref.initial_distribution, got.initial_distribution);
    EXPECT_EQ(ref.pairs_explored, got.pairs_explored);
  }
}

TEST(Executor, ParallelClosureErrorSurfacesAndLeavesThePoolQuiescent) {
  const auto proto = log_size_tiny();
  WidthGuard restore(1);  // dtor restores the default even on ASSERT bailout
  const auto ref = ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
  Executor::set_threads(4);
  // log_size_tiny's closure knows exactly 107 states when its first round
  // above the 2048-pair parallel cutoff starts, and that round discovers
  // more, so with max_states = 107 the first new state any pool worker
  // meets trips the guard.
  CompileOptions opts;
  opts.max_states = 107;
  try {
    ProtocolCompiler<BLS>(proto, proto.geometric_cap(), opts).compile();
    ADD_FAILURE() << "state-space guard did not trip";
  } catch (const std::invalid_argument& e) {
    // The workers' guard is the one in compiler.hpp; the serial sweep and
    // the merge trip the interner's (intern.hpp) instead.
    EXPECT_NE(std::string(e.what()).find("compiler.hpp"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(Executor::set_threads(2));  // every worker body finished
  const auto got = ProtocolCompiler<BLS>(proto, proto.geometric_cap()).compile();
  ASSERT_EQ(ref.num_states(), got.num_states());
  for (std::uint32_t i = 0; i < ref.num_states(); ++i) {
    ASSERT_EQ(ref.spec.name(i), got.spec.name(i));
  }
  const auto& ta = ref.spec.transitions();
  const auto& tb = got.spec.transitions();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_TRUE(ta[i].in_receiver == tb[i].in_receiver &&
                ta[i].in_sender == tb[i].in_sender &&
                ta[i].out_receiver == tb[i].out_receiver &&
                ta[i].out_sender == tb[i].out_sender && ta[i].rate == tb[i].rate)
        << "transition " << i << " diverged after the failed compile";
  }
}

TEST(Executor, ParallelTrialsArePerSeedInvariantAcrossWidths) {
  const auto proto = log_size_tiny();
  WidthGuard restore(1);  // dtor restores the default even on ASSERT bailout
  std::vector<std::uint64_t> reference;
  for (const unsigned width : {1u, 2u, 8u}) {
    Executor::set_threads(width);
    LazyCompiledSpec<BLS> lazy(proto, proto.geometric_cap());
    const auto values = lazy_trial_values(
        lazy, /*n=*/2000, /*interactions=*/30000, /*trials=*/10,
        /*master_seed=*/0xE8EC, [](const LS::State& s) { return s.role == Role::A; });
    if (width == 1) {
      reference = values;
    } else {
      EXPECT_EQ(reference, values) << "per-seed trial values diverged at width=" << width;
    }
  }
}

TEST(Executor, EffectiveTrialThreadsReportsTheRealFanOut) {
  WidthGuard width(4);
  EXPECT_EQ(effective_trial_threads(100), 4u);       // width-bound
  EXPECT_EQ(effective_trial_threads(2), 2u);         // trial-bound
  EXPECT_EQ(effective_trial_threads(100, 2), 2u);    // request below width
  EXPECT_EQ(effective_trial_threads(100, 64), 4u);   // request above width clamps
  EXPECT_EQ(effective_trial_threads(0), 1u);
}

TEST(Executor, TaskExceptionSurfacesAtWait) {
  WidthGuard width(4);
  std::atomic<std::uint64_t> ran{0};
  Executor::TaskGroup group;
  for (int i = 0; i < 8; ++i) {
    group.run([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8u);  // siblings all finished before wait returned
}

TEST(Executor, TrialExceptionPropagatesFromTheHarness) {
  WidthGuard width(4);
  EXPECT_THROW(run_trials_parallel(16, 0xDEAD,
                                   [](std::uint64_t, std::uint64_t i) -> int {
                                     if (i == 5) throw std::runtime_error("trial failed");
                                     return static_cast<int>(i);
                                   }),
               std::runtime_error);
}

TEST(Executor, ParsesWellFormedThreadCounts) {
  EXPECT_EQ(Executor::parse_threads("1"), 1u);
  EXPECT_EQ(Executor::parse_threads("8"), 8u);
  EXPECT_EQ(Executor::parse_threads("1024"), Executor::kMaxThreads);
}

TEST(Executor, RejectsMalformedThreadCounts) {
  for (const char* bad : {"", "8x", "x8", " 8", "8 ", "+8", "abc", "0", "-3", "1025",
                          "99999999999999999999"}) {
    try {
      Executor::parse_threads(bad);
      ADD_FAILURE() << "accepted POPS_THREADS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("POPS_THREADS"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace pops
