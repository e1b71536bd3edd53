// Ring ORAM (Ren et al.) as an H-ORAM backend (oram_backend adapter) —
// the one-real-block-per-bucket tree scheme behind the cacheable
// interface.
//
// The layout is a storage-resident Ring ORAM tree sized for ~2N real
// slots (≤50% utilisation over Z slots per bucket, plus S spares per
// bucket for online reads); the client state is the stash, the trusted
// per-slot permutation metadata, and a recursive position map
// (recursive_position_map) whose ORAM chain lives on a separate memory
// device. Fronted by the H-ORAM controller:
//   * a real miss walks the recursive map for the block's leaf and, in
//     the same per-level read-modify-write, records its next leaf
//     F_k(id, epoch); then it extracts the block with ONE slot read per
//     path bucket — a single XOR-combined transfer under ring_xor — the
//     live copy moving to the controller's tree;
//   * a dummy load performs a dummy map walk plus a dummy ring access
//     (one unread dummy slot per bucket of a random path), so real and
//     dummy loads are indistinguishable on both lanes;
//   * writes ride the scheme's own deterministic machinery: every A
//     online reads the tree evicts one reverse-lexicographic path, and
//     buckets whose spare slots run low reshuffle early — both range
//     operations on public schedules. The shuffle period re-installs
//     evicted blocks into the stash at the leaf their load recorded
//     (recomputed from the PRF: no map access) and drains with
//     forced deterministic evictions (level_count + ⌈E/Z⌉ of them, where
//     E is the number of evicted blocks); blocks the drain
//     cannot place stay sheltered in the stash.
//
// F_k is SipHash-2-4 under a per-shard key (oram/common/leaf_prf.h);
// like sealing, its secrecy is computational. Load, dummy load, the
// shuffle job and the audit are shared with path_backend through
// tree_backend (oram/common/tree_backend.h), which also explains why the
// drain budget depends on the public eviction size only.
//
// The adapter keeps the recursive map authoritative at the interface:
// every load first walks the map and verifies the answer against the
// tree's internal bookkeeping, and check_consistency() cross-audits
// tree, stash, residency bitmap and map chain.
#ifndef HORAM_ORAM_RING_RING_BACKEND_H
#define HORAM_ORAM_RING_RING_BACKEND_H

#include <cstdint>
#include <functional>
#include <span>

#include "core/config.h"
#include "oram/common/access_trace.h"
#include "oram/common/tree_backend.h"
#include "oram/ring/ring_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/rng.h"

namespace horam::oram {

class ring_backend final : public tree_backend<ring_oram> {
 public:
  /// Builds the tree holding every block in [0, config.block_count);
  /// `filler` provides initial payloads (null = zero-filled). The
  /// recursive position map chain lives on `map_device` (null = share
  /// `device`; the facade passes the machine's memory device). Device
  /// statistics are reset afterwards so initialisation is not measured.
  ring_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler,
               sim::block_device* map_device = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ring";
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_RING_RING_BACKEND_H
