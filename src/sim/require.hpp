// Precondition checking for the pops library.
//
// POPS_REQUIRE(cond, msg) throws std::invalid_argument when a documented
// precondition of a public API is violated.  It is always on (benchmarked
// call sites keep it out of inner loops), so misuse fails loudly in Release
// builds too.  Below it sits the population-size ceiling the count engine
// checks with it; the `advance_time` budget lives in sim/stepping.hpp.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pops {

[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  throw std::invalid_argument(std::string("pops precondition violated: ") + expr + " at " +
                              file + ":" + std::to_string(line) + (msg.empty() ? "" : ": ") +
                              msg);
}

}  // namespace pops

#define POPS_REQUIRE(cond, msg)                                  \
  do {                                                           \
    if (!(cond)) {                                               \
      ::pops::require_failed(#cond, __FILE__, __LINE__, (msg));  \
    }                                                            \
  } while (false)

namespace pops {

/// The count engine keeps its population below 2⁶³: its collision draw
/// needs 2n to fit 64 bits.
inline constexpr std::uint64_t kMaxPopulation = std::uint64_t{1} << 63;

}  // namespace pops
