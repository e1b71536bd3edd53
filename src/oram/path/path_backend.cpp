#include "oram/path/path_backend.h"

#include <memory>

namespace horam::oram {

namespace {

std::unique_ptr<path_oram> make_tree(const horam_config& config,
                                     sim::block_device& device,
                                     const sim::cpu_model& cpu,
                                     util::random_source& rng,
                                     access_trace* trace) {
  config.validate();
  path_oram_config tree_config;
  tree_config.leaf_count =
      tree_leaf_count(config.block_count, config.bucket_size);
  tree_config.bucket_size = config.bucket_size;
  tree_config.payload_bytes = config.payload_bytes;
  tree_config.logical_block_bytes = config.logical_block_bytes;
  tree_config.id_universe = config.block_count;
  // Every level on the storage device: memory_levels = 0 leaves the
  // memory store empty, so passing `device` for both lanes is inert.
  tree_config.memory_levels = 0;
  tree_config.seal = config.seal;
  tree_config.key_seed = config.key_seed ^ 0x5061;  // "Pa"
  tree_config.layout = config.layout;
  tree_config.page_bytes = config.page_bytes;
  return std::make_unique<path_oram>(tree_config, device, &device, cpu, rng,
                                     trace);
}

}  // namespace

path_backend::path_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler,
    sim::block_device* map_device)
    : tree_backend(config, make_tree(config, device, cpu, rng, trace),
                   config.bucket_size, config.key_seed ^ 0x5062, device, map_device, cpu, rng,
                   trace, filler) {}

std::uint64_t path_backend::physical_bytes() const {
  const std::uint64_t logical = config_.logical_block_bytes != 0
                                    ? config_.logical_block_bytes
                                    : tree().record_bytes();
  return tree().capacity_blocks() * logical + map().oram_bytes();
}

std::uint64_t path_backend::control_memory_bytes() const {
  // Trusted state: the map residue, the stash, the residency bitmap.
  return shared_trusted_bytes();
}

}  // namespace horam::oram
