// The JIT hook of the count simulators.
//
// The dispatch table itself, eager or growing, is `DispatchTable`
// (sim/dispatch.hpp).  `ConcurrentDispatchTable` is kept only as another
// name for it: the milestone benchmark (milestone_bench/) names both types
// and is versioned with the benchmark definition, not with the engine, so
// engine changes must leave it compiling unedited.
#pragma once

#include <cstdint>

#include "sim/dispatch.hpp"
#include "sim/finite_spec.hpp"

namespace pops {

using ConcurrentDispatchTable = DispatchTable;

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
  virtual const DispatchTable& table() const = 0;
  virtual const FiniteSpec& spec() const = 0;
};

}  // namespace pops
