// The machinery path_backend and ring_backend share: a storage-resident
// tree ORAM (path_oram or ring_oram) fronted by the H-ORAM controller,
// with a recursive position map on the memory device and a residency
// bitmap in trusted memory.
//
//   * Load: one map walk that reads the block's leaf and writes its next
//     leaf F_k(id, epoch) (oram/common/leaf_prf.h) in the same per-level
//     read-modify-write, then one tree access that extracts the block.
//   * Dummy load: a map walk of a uniformly random id (entry written
//     back unchanged) plus a dummy tree access — the same bus shape on
//     both lanes.
//   * Shuffle: one job for both trees. Units are single installs into
//     the tree's stash at the leaf the load already recorded (no map
//     access), then single force_evict() calls along the tree's
//     reverse-lexicographic leaf counter. Nothing is ever handed back:
//     blocks the drain cannot place stay in the stash, the scheme's
//     trusted holding area.
//
// The drain budget is level_count + ⌈E/Z⌉ accesses, where E is the
// number of evicted blocks and Z the tree's real slots per bucket. E,
// the size of the hot set, is treated as public here as in every
// backend's shuffle, so the burst length depends on E and the public
// geometry only: which blocks were evicted, and where they go, never
// changes it. The leaves drained are the next ones of a fixed public
// order, so the drain's bus trace is a function of its length alone. A
// bounded conditional tail (at most 4 · budget + 64 more accesses, while
// the stash holds more than 2Z blocks) is the safety net for an
// unlucky stash.
#ifndef HORAM_ORAM_COMMON_TREE_BACKEND_H
#define HORAM_ORAM_COMMON_TREE_BACKEND_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "oram/common/access_trace.h"
#include "oram/common/leaf_prf.h"
#include "oram/path/recursive_position_map.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/rng.h"

namespace horam::oram {

template <class Tree>
class tree_shuffle_job;

/// Smallest power-of-two leaf count whose tree of Z real slots per
/// bucket holds ~2N blocks: the ≤50%-utilisation convention (§2.1.2,
/// bench/common.cpp's tree-top baseline). Computed by doubling, so the
/// result is a power of two for every legal Z.
[[nodiscard]] std::uint64_t tree_leaf_count(std::uint64_t block_count,
                                            std::uint32_t z);

/// What the last shuffle period's stash drain did.
struct drain_report {
  /// Accesses the public budget allows (level_count + ⌈E/Z⌉).
  std::uint64_t budget = 0;
  /// Accesses issued, conditional tail included (> budget iff the tail
  /// fired).
  std::uint64_t accesses = 0;
  /// Drain access after which the stash first held at most `floor`
  /// blocks (0: it already did before the first access, or never did —
  /// then the tail ran out).
  std::uint64_t settled_at = 0;
  /// Stash size the drain aims for (2Z).
  std::uint64_t floor = 0;
};

/// Shared backend over `Tree` (path_oram or ring_oram). Derived classes
/// build the tree and report its footprint.
template <class Tree>
class tree_backend : public horam::oram_backend {
 public:
  using filler_fn = std::function<void(block_id, std::span<std::uint8_t>)>;

  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Implemented as begin_shuffle() driven to completion in one
  /// unbounded step, so the monolithic and incremental entry points
  /// are interchangeable by construction.
  horam::shuffle_cost shuffle_period(
      std::vector<evicted_block> evicted, std::uint64_t period_index,
      std::vector<evicted_block>& overflow_out) override;
  /// `evicted` must hold every cached block (the controller's whole hot
  /// set): each was given its leaf for this shuffle when it was loaded.
  /// One job may be in flight at a time.
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<evicted_block> evicted,
      std::uint64_t period_index) override;
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return stats_;
  }
  /// Audits tree, stash, residency bitmap and map chain: a resident
  /// block's map entry is its tree leaf, a cached block's is the leaf
  /// its next install will use.
  void check_consistency() const override;

  [[nodiscard]] const Tree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const recursive_position_map& map() const noexcept {
    return *map_;
  }
  /// The next-leaf PRF (key fingerprint for audits; leaves for tests).
  [[nodiscard]] const leaf_prf& next_leaf() const noexcept { return prf_; }
  /// Shuffles begun so far: a block loaded now is installed at
  /// next_leaf()(id, shuffle_epoch()).
  [[nodiscard]] std::uint64_t shuffle_epoch() const noexcept {
    return epoch_;
  }
  [[nodiscard]] const drain_report& last_drain() const noexcept {
    return last_drain_;
  }

 protected:
  /// Takes a freshly built (empty) tree, fills it with every block in
  /// [0, config.block_count) and builds the map chain on `map_device`
  /// (null = `device`) from the tree's leaves. `drain_z` is the tree's
  /// real slots per bucket.
  tree_backend(const horam_config& config, std::unique_ptr<Tree> tree,
               std::uint64_t drain_z, std::uint64_t map_key_seed, sim::block_device& device,
               sim::block_device* map_device, const sim::cpu_model& cpu,
               util::random_source& rng, access_trace* trace,
               const filler_fn* filler);
  ~tree_backend() override;

  /// Trusted bytes every tree backend holds: map residue, stash and
  /// residency bitmap.
  [[nodiscard]] std::uint64_t shared_trusted_bytes() const;

  horam_config config_;

 private:
  friend class tree_shuffle_job<Tree>;

  util::random_source& rng_;
  access_trace* trace_;
  std::uint64_t drain_z_;

  std::unique_ptr<Tree> tree_;
  std::unique_ptr<recursive_position_map> map_;
  leaf_prf prf_;
  std::uint64_t epoch_ = 0;
  /// The job in flight, if any (cleared by its finish() or destructor).
  tree_shuffle_job<Tree>* active_job_ = nullptr;

  /// cached_[id] != 0 iff the live copy moved to the controller's cache.
  std::vector<std::uint8_t> cached_;
  std::uint64_t cached_count_ = 0;
  drain_report last_drain_;

  horam::backend_stats stats_;
  std::vector<std::uint8_t> payload_scratch_;
};

// Member definitions live in tree_backend.cpp, explicitly instantiated
// for path_oram and ring_oram.

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_TREE_BACKEND_H
