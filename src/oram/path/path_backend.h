// Path ORAM (Stefanov et al.) as an H-ORAM backend (oram_backend
// adapter) — the tree-based scheme behind the cacheable interface.
//
// The layout is a storage-resident Path ORAM tree sized for ~2N blocks
// (≤50% utilisation, §2.1.2) with every level on the storage device;
// the scheme's client state is the stash plus a recursive position map
// (recursive_position_map) whose ORAM chain lives on a separate memory
// device. Fronted by the H-ORAM controller (whose cache tree plays the
// role of a very large shelter):
//   * a real miss walks the recursive map (one ORAM access per level)
//     to locate the block's leaf and, in the same read-modify-write,
//     records its next leaf F_k(id, epoch) — Path ORAM's remap inside
//     the access that reads the block. One path read + write-back then
//     extracts the block; the live copy moves to the controller's tree;
//   * a dummy load performs a dummy map walk (uniform random id) plus a
//     dummy path access, so real and dummy loads are indistinguishable
//     on both the map and the tree bus;
//   * the shuffle period is Path ORAM's no-reshuffle answer: every
//     evicted block re-enters the stash at the leaf its load recorded
//     (recomputed from the PRF, so the shuffle touches no map ORAM),
//     and a burst of force_evict() accesses along a reverse-
//     lexicographic leaf order drains the stash back into the tree. The
//     burst length is level_count + ⌈E/Z⌉ for E evicted blocks — a
//     function of the public hot-set size only. Blocks the drain cannot
//     place simply stay in the stash: the stash is the scheme's trusted
//     holding area, so no overflow is ever handed back.
//
// F_k is SipHash-2-4 under a per-shard key (oram/common/leaf_prf.h);
// like sealing, its secrecy is computational. The machinery is shared
// with ring_backend through tree_backend (oram/common/tree_backend.h).
//
// The adapter keeps the recursive map authoritative at the interface:
// every load first walks the map and verifies the answer against the
// tree's internal bookkeeping (invariant, not assumption), and
// check_consistency() cross-audits tree, stash, residency bitmap and
// map chain.
#ifndef HORAM_ORAM_PATH_PATH_BACKEND_H
#define HORAM_ORAM_PATH_PATH_BACKEND_H

#include <cstdint>
#include <functional>
#include <span>

#include "core/config.h"
#include "oram/common/access_trace.h"
#include "oram/common/tree_backend.h"
#include "oram/path/path_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/rng.h"

namespace horam::oram {

class path_backend final : public tree_backend<path_oram> {
 public:
  /// Builds the tree holding every block in [0, config.block_count);
  /// `filler` provides initial payloads (null = zero-filled). The
  /// recursive position map chain lives on `map_device` (null = share
  /// `device`; the facade passes the machine's memory device). Device
  /// statistics are reset afterwards so initialisation is not measured.
  path_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler,
               sim::block_device* map_device = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "path";
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_PATH_PATH_BACKEND_H
