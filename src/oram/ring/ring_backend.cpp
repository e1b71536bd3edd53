#include "oram/ring/ring_backend.h"

#include <memory>

namespace horam::oram {

namespace {

std::unique_ptr<ring_oram> make_tree(const horam_config& config,
                                     sim::block_device& device,
                                     const sim::cpu_model& cpu,
                                     util::random_source& rng,
                                     access_trace* trace) {
  config.validate();
  ring_oram_config tree_config;
  tree_config.leaf_count =
      tree_leaf_count(config.block_count, config.ring_bucket_size);
  tree_config.real_slots = config.ring_bucket_size;
  tree_config.spare_slots = config.ring_spare_slots;
  tree_config.eviction_rate = config.ring_eviction_rate;
  tree_config.payload_bytes = config.payload_bytes;
  tree_config.logical_block_bytes = config.logical_block_bytes;
  tree_config.id_universe = config.block_count;
  tree_config.seal = config.seal;
  tree_config.key_seed = config.key_seed ^ 0x5269;  // "Ri"
  tree_config.xor_reads = config.ring_xor;
  return std::make_unique<ring_oram>(tree_config, device, cpu, rng, trace);
}

}  // namespace

ring_backend::ring_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler,
    sim::block_device* map_device)
    : tree_backend(config, make_tree(config, device, cpu, rng, trace),
                   config.ring_bucket_size, config.key_seed ^ 0x526a, device, map_device, cpu, rng,
                   trace, filler) {}

std::uint64_t ring_backend::physical_bytes() const {
  const std::uint64_t logical = config_.logical_block_bytes != 0
                                    ? config_.logical_block_bytes
                                    : tree().record_bytes();
  return tree().total_slots() * logical + map().oram_bytes();
}

std::uint64_t ring_backend::control_memory_bytes() const {
  // Trusted state: the map residue, the stash, the residency bitmap,
  // and the per-slot permutation metadata + per-bucket counters.
  return shared_trusted_bytes() +
         tree().total_slots() * (sizeof(block_id) + 1) +
         tree().bucket_count() * (sizeof(std::uint32_t) +
                                  sizeof(std::uint64_t));
}

}  // namespace horam::oram
