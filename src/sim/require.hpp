// Precondition checking for the pops library.
//
// POPS_REQUIRE(cond, msg) throws std::invalid_argument when a documented
// precondition of a public API is violated.  It is always on (benchmarked
// call sites keep it out of inner loops), so misuse fails loudly in Release
// builds too.  Below it sit the two numeric limits the simulators check
// with it: the population-size ceiling and the `advance_time` budget.
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

/// Interactions in `dt` units of parallel time at population size `n`:
/// dt·n, truncated — the `advance_time` budget of every simulator.  Throws
/// for a negative, NaN or infinite dt and for a product of 2⁶⁴ or more,
/// whose conversion to uint64 would be undefined behaviour.
inline std::uint64_t interactions_in(double dt, std::uint64_t n) {
  POPS_REQUIRE(dt >= 0.0, "advance_time needs dt >= 0");
  const double k = dt * static_cast<double>(n);
  POPS_REQUIRE(k < 0x1p64, "advance_time needs a finite dt with dt * n < 2^64");
  return static_cast<std::uint64_t>(k);
}

}  // namespace pops
