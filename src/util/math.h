// Small integer math helpers used throughout the ORAM layers.
// All functions are constexpr and total (they validate their inputs at
// run time via contracts where a silent wrap would be dangerous).
#ifndef HORAM_UTIL_MATH_H
#define HORAM_UTIL_MATH_H

#include <cstdint>

#include "util/contracts.h"

namespace horam::util {

/// True iff v is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// floor(log2(v)); v must be nonzero.
constexpr unsigned floor_log2(std::uint64_t v) {
  expects(v != 0, "floor_log2 of zero");
  unsigned level = 0;
  while (v >>= 1) {
    ++level;
  }
  return level;
}

/// ceil(log2(v)); v must be nonzero. ceil_log2(1) == 0.
constexpr unsigned ceil_log2(std::uint64_t v) {
  expects(v != 0, "ceil_log2 of zero");
  const unsigned fl = floor_log2(v);
  return is_pow2(v) ? fl : fl + 1;
}

/// Smallest power of two >= v; v must be nonzero and representable.
constexpr std::uint64_t next_pow2(std::uint64_t v) {
  expects(v != 0, "next_pow2 of zero");
  return std::uint64_t{1} << ceil_log2(v);
}

/// ceil(a / b); b must be nonzero.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  expects(b != 0, "ceil_div by zero");
  return (a + b - 1) / b;
}

/// The low `bits` bits of v in reverse order (bit 0 becomes bit
/// bits-1). Walking a counter through it visits the 2^bits leaves of a
/// tree in reverse-lexicographic order, the eviction order that spreads
/// consecutive paths as far apart as possible (Ring ORAM's schedule).
constexpr std::uint64_t reverse_bits(std::uint64_t v, unsigned bits) noexcept {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < bits; ++i) {
    out = (out << 1) | (v & 1);
    v >>= 1;
  }
  return out;
}

/// floor(sqrt(v)) computed with integer Newton iteration (exact).
constexpr std::uint64_t isqrt(std::uint64_t v) noexcept {
  if (v < 2) {
    return v;
  }
  std::uint64_t x = v;
  std::uint64_t y = (x + 1) / 2;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  return x;
}

/// ceil(sqrt(v)).
constexpr std::uint64_t isqrt_ceil(std::uint64_t v) noexcept {
  const std::uint64_t r = isqrt(v);
  return r * r == v ? r : r + 1;
}

}  // namespace horam::util

#endif  // HORAM_UTIL_MATH_H
