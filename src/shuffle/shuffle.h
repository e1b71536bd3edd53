// Common types for the shuffle library.
//
// The shuffles the system runs (§3.2, §4.3):
//   * the Melbourne shuffle (melbourne.h) — the external-memory
//     oblivious shuffle the paper cites as the several-passes cost it
//     wants to avoid; the sqrt backend reshuffles its whole array with
//     it every period;
//   * util::random_permutation (util/rng.h) — the in-memory shuffle of
//     H-ORAM's group-and-partition shuffle (storage_layer re-permutes
//     each partition in trusted memory with it) and of the Path ORAM
//     evict.
//
// Permutation convention: pi[i] is the NEW position of element i
// (destination mapping).
#ifndef HORAM_SHUFFLE_SHUFFLE_H
#define HORAM_SHUFFLE_SHUFFLE_H

#include <cstdint>
#include <vector>

namespace horam::shuffle {

/// Destination-mapping permutation: pi[i] = new position of element i.
using permutation = std::vector<std::uint64_t>;

/// True iff `pi` is a bijection on {0, ..., pi.size()-1}.
[[nodiscard]] bool is_permutation(const permutation& pi);

/// Work counters reported by a shuffle, convertible to virtual time by
/// the caller's cpu/device models.
struct shuffle_stats {
  /// Records moved through the shuffle's phases.
  std::uint64_t touch_ops = 0;
  /// Record bytes moved through the algorithm.
  std::uint64_t bytes_moved = 0;
  /// Retries due to bucket overflow.
  std::uint64_t retries = 0;
};

}  // namespace horam::shuffle

#endif  // HORAM_SHUFFLE_SHUFFLE_H
