// Pattern auditor: replays an access trace (the adversary's view) and
// checks the obliviousness invariants H-ORAM's security argument (paper
// §4.4) rests on.
//
// Checks:
//   1. Storage read uniqueness — a storage slot is read at most once
//      between the writes that refresh it (shuffle sweeps, appends);
//      re-reads are the classic square-root-ORAM leak.
//   2. Cycle regularity — every scheduler cycle performs exactly `c`
//      in-memory path accesses (c from the cycle event) and all its
//      storage reads target one partition (1 read in full-shuffle mode,
//      1 + pending-segments with partial shuffling).
//   3. Path leaf uniformity — in-memory path accesses hit leaves
//      uniformly (chi-square test).
//   4. Shuffle coverage — every due partition's shuffle writes its full
//      main region.
//   5. Union access — each run of announced paths (a cycle's cache-tree
//      group, or one map-level access) reads exactly the buckets of
//      the union of those paths, each once, and writes each once. The
//      check applies where the trace records bucket detail, i.e. to
//      fully in-memory trees.
#ifndef HORAM_ANALYSIS_PATTERN_AUDIT_H
#define HORAM_ANALYSIS_PATTERN_AUDIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "oram/common/access_trace.h"

namespace horam::analysis {

/// What the auditor needs to know about the configuration (all public
/// parameters an adversary would also know).
struct audit_config {
  std::uint64_t partition_count = 0;
  std::uint64_t slots_per_partition = 0;
  std::uint64_t main_capacity = 0;
  std::uint64_t leaf_count = 0;
  /// True for full-shuffle configurations: exactly one storage read
  /// per cycle.
  bool expect_single_read_per_cycle = true;
};

/// Audit outcome. `violations` holds human-readable findings; empty
/// means the trace passed every check.
struct audit_report {
  std::vector<std::string> violations;
  std::uint64_t cycles = 0;
  std::uint64_t storage_reads = 0;
  std::uint64_t path_accesses = 0;
  std::uint64_t shuffles = 0;
  /// Chi-square statistic of the leaf histogram (dof = leaf_count - 1).
  double leaf_chi_square = 0.0;
  bool leaf_uniformity_ok = true;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs every check against `trace`.
audit_report audit_trace(const oram::access_trace& trace,
                         const audit_config& config);

/// Chi-square statistic of `counts` against the uniform distribution.
double chi_square_uniform(const std::vector<std::uint64_t>& counts);

/// Acceptance threshold for a chi-square statistic with `dof` degrees
/// of freedom: mean + 6 sigma, k + 6·sqrt(2k). The chi-square tail is
/// far heavier than a normal one at few degrees of freedom, so its
/// false-positive rate is not a six-sigma 1e-9 but 5.1e-4 at k = 3
/// (a 4-leaf tree), 1.2e-4 at k = 7, 2.7e-5 at k = 15, 5.8e-6 at
/// k = 31 and 1.3e-6 at k = 63, falling towards 1e-9 only for very
/// large k.
double chi_square_threshold(std::uint64_t dof);

}  // namespace horam::analysis

#endif  // HORAM_ANALYSIS_PATTERN_AUDIT_H
