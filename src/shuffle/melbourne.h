// Melbourne shuffle (Ohrimenko, Goodrich, Tamassia, Upfal) — the
// external-memory oblivious shuffle the paper cites ([9]/[10] in the
// thesis) as the expensive machinery H-ORAM's partition shuffle avoids.
//
// Simplified two-phase variant with the canonical structure:
//   distribute: stream the input in ~sqrt(n) batches; each batch writes
//     one fixed-size message per bucket (padded with dummies), so the
//     write pattern is independent of the permutation;
//   clean: stream each bucket's messages, drop dummies, order by
//     destination in client memory (O(sqrt(n) * quota) records), emit
//     output sequentially.
// If any (batch, bucket) message overflows its quota the whole shuffle
// retries with fresh randomness (probability falls geometrically with
// the quota; the default keeps it negligible for n up to 2^24).
//
// The I/O volume is (1 + quota) * n reads plus (1 + quota) * n writes in
// record units — the "several passes over the whole dataset" cost that
// motivates H-ORAM's sequential group-and-partition shuffle.
#ifndef HORAM_SHUFFLE_MELBOURNE_H
#define HORAM_SHUFFLE_MELBOURNE_H

#include "shuffle/shuffle.h"
#include "sim/time.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::shuffle {

/// Tuning knobs for the Melbourne shuffle.
struct melbourne_config {
  /// Per-(batch, bucket) message capacity in records, including dummies.
  std::uint64_t message_quota = 10;
  /// Abort after this many overflow retries (indicates a mis-sized quota).
  std::uint64_t max_retries = 32;
};

/// Outcome of an external shuffle.
struct external_shuffle_result {
  /// Permutation applied: input slot i ended at output slot pi[i].
  permutation pi;
  /// Virtual device time spent.
  sim::sim_time io_time = 0;
  /// Work counters (touch_ops counts records moved through phases).
  shuffle_stats stats;
};

/// Scratch records required for n input records under `config`
/// (callers size their scratch store with this).
[[nodiscard]] std::uint64_t melbourne_scratch_records(
    std::uint64_t n, const melbourne_config& config);

/// Obliviously shuffles all records of `input` into `output` through
/// `scratch`. The stores must share record size; scratch must hold at
/// least melbourne_scratch_records(n) records. Throws on quota
/// exhaustion after max_retries.
external_shuffle_result melbourne_shuffle(storage::block_store& input,
                                          storage::block_store& scratch,
                                          storage::block_store& output,
                                          util::random_source& rng,
                                          const melbourne_config& config = {});

}  // namespace horam::shuffle

#endif  // HORAM_SHUFFLE_MELBOURNE_H
