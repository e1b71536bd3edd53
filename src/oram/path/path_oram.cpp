#include "oram/path/path_oram.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Chunk size (records) for sequential sweeps, to bound host buffers.
constexpr std::uint64_t sweep_chunk_records = 1 << 14;

/// Records per codec batch where a sweep decodes payloads or stages
/// scattered records: bounds the payload and staging buffers.
constexpr std::uint64_t codec_batch_records = 64;

thread_local detail::path_store_log* active_store_log = nullptr;

}  // namespace

detail::path_store_log::path_store_log() : outer_(active_store_log) {
  active_store_log = this;
}

detail::path_store_log::~path_store_log() { active_store_log = outer_; }

path_oram::path_oram(const path_oram_config& config,
                     sim::block_device& memory_device,
                     sim::block_device* io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace)
    : config_(config),
      level_count_(static_cast<std::uint32_t>(
          util::floor_log2(config.leaf_count) + 1)),
      memory_levels_(std::min(config.memory_levels, level_count_)),
      bucket_count_(2 * config.leaf_count - 1),
      memory_bucket_count_((std::uint64_t{1} << memory_levels_) - 1),
      codec_(config.payload_bytes, config.seal, config.key_seed),
      memory_device_(memory_device),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      positions_(config.id_universe) {
  expects(util::is_pow2(config.leaf_count), "leaf count must be 2^k");
  expects(config.bucket_size > 0, "bucket size must be positive");
  expects(config.id_universe > 0, "id universe must be positive");

  const std::uint64_t logical =
      config.logical_block_bytes != 0 ? config.logical_block_bytes
                                      : codec_.record_bytes();
  expects(logical >= codec_.record_bytes(),
          "logical block smaller than the encoded record");
  logical_bytes_ = logical;

  if (memory_bucket_count_ > 0) {
    memory_store_ = std::make_unique<storage::block_store>(
        memory_device, /*base_offset=*/0,
        memory_bucket_count_ * config.bucket_size, codec_.record_bytes(),
        logical);
  }
  const std::uint64_t io_buckets = bucket_count_ - memory_bucket_count_;
  if (io_buckets > 0) {
    expects(io_device != nullptr,
            "tree deeper than memory_levels needs a storage device");
    io_store_ = std::make_unique<storage::block_store>(
        *io_device, /*base_offset=*/0, io_buckets * config.bucket_size,
        codec_.record_bytes(), logical);
    if (config.layout == storage::storage_layout::page) {
      storage::page_layout_config page_config;
      page_config.total_levels = level_count_;
      page_config.first_level = memory_levels_;
      page_config.bucket_size = config.bucket_size;
      page_config.logical_block_bytes = logical;
      page_config.page_bytes = config.page_bytes;
      page_ = std::make_unique<storage::page_layout>(page_config);
      invariant(page_->total_slots() == io_store_->slot_count(),
                "page layout does not cover the storage lane exactly");
      valid_ = std::make_unique<storage::valid_bit_tree>(io_buckets);
      segment_buffers_.resize(page_->group_count());
      for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
        segment_buffers_[g].resize(page_->segment_records(g) *
                                   codec_.record_bytes());
      }
    }
  }

  bucket_scratch_.resize(config.bucket_size * codec_.record_bytes());
  selected_.reserve(config.bucket_size);
  zero_payload_.resize(config.payload_bytes, 0);
  reserve_group(1);
  if (active_store_log != nullptr) {
    active_store_log->trees_.push_back({memory_store_.get(), io_store_.get()});
  }

  // Start with a physically dummy-filled tree.
  reset();
}

std::uint64_t path_oram::bucket_on_path(leaf_id leaf,
                                        std::uint32_t level) const {
  return ((std::uint64_t{1} << level) - 1) +
         (leaf >> (level_count_ - 1 - level));
}

bool path_oram::paths_share_bucket(leaf_id a, leaf_id b,
                                   std::uint32_t level) const {
  const std::uint32_t shift = level_count_ - 1 - level;
  return (a >> shift) == (b >> shift);
}

bool path_oram::bucket_in_memory(std::uint64_t bucket) const noexcept {
  return bucket < memory_bucket_count_;
}

cost_split path_oram::read_bucket(std::uint64_t bucket,
                                  std::span<std::uint8_t> out) {
  cost_split cost;
  const std::uint64_t z = config_.bucket_size;
  if (bucket_in_memory(bucket)) {
    cost.memory += memory_store_->read_range(bucket * z, z, out);
    trace(trace_, event_kind::memory_bucket_read, bucket);
  } else {
    const std::uint64_t io_bucket = bucket - memory_bucket_count_;
    cost.io += io_store_->read_range(io_bucket * z, z, out);
    trace(trace_, event_kind::storage_read_slot, bucket);
  }
  return cost;
}

cost_split path_oram::write_bucket(std::uint64_t bucket,
                                   std::span<const std::uint8_t> records) {
  cost_split cost;
  const std::uint64_t z = config_.bucket_size;
  if (bucket_in_memory(bucket)) {
    cost.memory += memory_store_->write_range(bucket * z, z, records);
    trace(trace_, event_kind::memory_bucket_write, bucket);
  } else {
    const std::uint64_t io_bucket = bucket - memory_bucket_count_;
    cost.io += io_store_->write_range(io_bucket * z, z, records);
    trace(trace_, event_kind::storage_write_slot, bucket);
  }
  return cost;
}

void path_oram::reserve_group(std::size_t ops) {
  const std::size_t buckets = ops * level_count_;
  if (buckets <= union_index_.size()) {
    return;
  }
  const std::size_t records = buckets * config_.bucket_size;
  group_.reserve(ops);
  union_buckets_.reserve(buckets);
  union_index_.resize(buckets);
  window_.resize(records * codec_.record_bytes());
  window_ids_.resize(records);
  window_payloads_.resize(records * config_.payload_bytes);
  writeback_.reserve(records);
}

std::span<std::uint8_t> path_oram::window_at(std::size_t position) {
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(config_.bucket_size) * codec_.record_bytes();
  return {window_.data() + position * bucket_bytes, bucket_bytes};
}

std::size_t path_oram::window_position(std::size_t op,
                                       std::uint32_t level) const {
  return union_buckets_.size() - 1 -
         union_index_[op * level_count_ + level];
}

std::span<std::uint8_t> path_oram::window_bucket(std::uint32_t level) {
  return window_at(level_count_ - 1 - level);
}

bool path_oram::segment_valid(storage::segment_ref segment) const {
  const std::uint32_t top = page_->group_top_level(segment.group);
  for (std::uint32_t d = 0; d < page_->group_height(segment.group); ++d) {
    const std::uint32_t level = top + d;
    for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
      const std::uint64_t position = (segment.index << d) | j;
      const std::uint64_t bucket =
          ((std::uint64_t{1} << level) - 1) + position;
      if (valid_->test(bucket - memory_bucket_count_)) {
        return true;
      }
    }
  }
  return false;
}

void path_oram::mark_segment_valid(storage::segment_ref segment) {
  const std::uint32_t top = page_->group_top_level(segment.group);
  for (std::uint32_t d = 0; d < page_->group_height(segment.group); ++d) {
    const std::uint32_t level = top + d;
    for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
      const std::uint64_t position = (segment.index << d) | j;
      const std::uint64_t bucket =
          ((std::uint64_t{1} << level) - 1) + position;
      valid_->set(bucket - memory_bucket_count_);
    }
  }
}

cost_split path_oram::load_union() {
  cost_split cost;
  const std::size_t union_size = union_buckets_.size();
  if (!page_) {
    for (std::size_t read = 0; read < union_size; ++read) {
      cost += read_bucket(union_buckets_[read],
                          window_at(union_size - 1 - read));
    }
    return cost;
  }

  // Page layout: a group of one, so the window is one path.
  const leaf_id leaf = group_.front().leaf;
  const std::uint64_t z = config_.bucket_size;
  const std::size_t record_bytes = codec_.record_bytes();
  const std::size_t bucket_bytes = z * record_bytes;

  // Memory levels stay bucket-granular on the memory lane.
  for (std::uint32_t level = 0; level < memory_levels_; ++level) {
    cost += read_bucket(bucket_on_path(leaf, level), window_bucket(level));
  }
  // Storage levels arrive one segment per group, root side first. A
  // segment no bucket of which was ever written holds only dummies, so
  // its device read is skipped and the buffer restored from the host
  // image — an invariant reset()/initialize_full() maintain. Which
  // segments a path touches (and which are skipped) depends only on the
  // leaf and the public write-back history, never on block identities.
  for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
    const storage::segment_ref segment = page_->path_segment(g, leaf);
    const std::uint64_t first = page_->segment_first_slot(segment);
    const std::uint64_t records = page_->segment_records(g);
    std::vector<std::uint8_t>& buffer = segment_buffers_[g];
    if (segment_valid(segment)) {
      cost.io += io_store_->read_range(first, records, buffer);
      trace(trace_, event_kind::storage_read_sweep, first, records);
    } else {
      for (std::uint64_t r = 0; r < records; ++r) {
        const std::span<const std::uint8_t> host = io_store_->peek(first + r);
        std::memcpy(buffer.data() + r * record_bytes, host.data(),
                    record_bytes);
      }
    }
    const std::uint32_t top = page_->group_top_level(g);
    for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
      const std::uint32_t level = top + d;
      const std::uint64_t position = leaf >> (level_count_ - 1 - level);
      const std::uint64_t index =
          page_->bucket_index_in_segment(level, position);
      std::memcpy(window_bucket(level).data(),
                  buffer.data() + index * bucket_bytes, bucket_bytes);
    }
  }
  return cost;
}

cost_split path_oram::store_union() {
  cost_split cost;
  const std::size_t union_size = union_buckets_.size();
  if (!page_) {
    for (std::size_t position = 0; position < union_size; ++position) {
      cost += write_bucket(union_buckets_[union_size - 1 - position],
                           window_at(position));
    }
    return cost;
  }

  // Page layout, a group of one. Leaf-to-root: deepest group's segment
  // first, then up, then the memory buckets. Path buckets are spliced
  // into the segment buffer load_union filled; sibling bytes go back
  // unchanged. The write makes every covered bucket's device image
  // authoritative, so the whole segment turns valid.
  const leaf_id leaf = group_.front().leaf;
  const std::uint64_t z = config_.bucket_size;
  const std::size_t bucket_bytes = z * codec_.record_bytes();
  for (std::uint32_t up = 0; up < page_->group_count(); ++up) {
    const std::uint32_t g = page_->group_count() - 1 - up;
    const storage::segment_ref segment = page_->path_segment(g, leaf);
    std::vector<std::uint8_t>& buffer = segment_buffers_[g];
    const std::uint32_t top = page_->group_top_level(g);
    for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
      const std::uint32_t level = top + d;
      const std::uint64_t position = leaf >> (level_count_ - 1 - level);
      const std::uint64_t index =
          page_->bucket_index_in_segment(level, position);
      std::memcpy(buffer.data() + index * bucket_bytes,
                  window_bucket(level).data(), bucket_bytes);
    }
    const std::uint64_t first = page_->segment_first_slot(segment);
    const std::uint64_t records = page_->segment_records(g);
    cost.io += io_store_->write_range(first, records, buffer);
    trace(trace_, event_kind::storage_write_sweep, first, records);
    mark_segment_valid(segment);
  }
  for (std::uint32_t down = 0; down < memory_levels_; ++down) {
    const std::uint32_t level = memory_levels_ - 1 - down;
    cost += write_bucket(bucket_on_path(leaf, level), window_bucket(level));
  }
  return cost;
}

bool path_oram::contains(block_id id) const { return positions_.contains(id); }

cost_split path_oram::run_group() {
  cost_split cost;
  // One group = one dependent exchange per lane: the union is read,
  // every op is served and the union written back before the caller
  // can issue anything that depends on the results. A recursive map
  // walk of k levels is k groups of one, so it counts k round trips.
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  for (const planned_op& planned : group_) {
    trace(trace_, event_kind::memory_path_access, planned.leaf,
          config_.leaf_count);
  }

  // The union of the paths, path by path, root to leaf. Two paths
  // share a level's bucket iff their leaves agree above it, so op j's
  // bucket is new unless an earlier op already reads it.
  union_buckets_.clear();
  for (std::size_t j = 0; j < group_.size(); ++j) {
    for (std::uint32_t level = 0; level < level_count_; ++level) {
      auto index = static_cast<std::uint32_t>(union_buckets_.size());
      for (std::size_t i = 0; i < j; ++i) {
        if (paths_share_bucket(group_[i].leaf, group_[j].leaf, level)) {
          index = union_index_[i * level_count_ + level];
          break;
        }
      }
      if (index == union_buckets_.size()) {
        union_buckets_.push_back(bucket_on_path(group_[j].leaf, level));
      }
      union_index_[j * level_count_ + level] = index;
    }
  }

  // Read the union into the window and open it as one batch: every
  // record's MAC is checked before any block moves.
  const std::size_t records = union_buckets_.size() * config_.bucket_size;
  const std::size_t record_bytes = codec_.record_bytes();
  const std::span<std::uint8_t> window =
      std::span(window_).first(records * record_bytes);
  cost += load_union();
  codec_.decode_many(window, std::span(window_ids_).first(records),
                     std::span(window_payloads_)
                         .first(records * config_.payload_bytes));

  for (std::size_t j = 0; j < group_.size(); ++j) {
    cost += replay(j);
  }

  // Seal the working set as one batch, in window (write-back) order,
  // and write each union bucket once.
  writeback_.clear();
  for (std::size_t r = 0; r < records; ++r) {
    const block_id id = window_ids_[r];
    writeback_.push_back(
        id == dummy_block_id
            ? block_codec::block_ref{}
            : block_codec::block_ref{
                  id, std::span<const std::uint8_t>(window_payloads_)
                          .subspan(r * config_.payload_bytes,
                                   config_.payload_bytes)});
  }
  codec_.encode_many(writeback_, window);
  cost += store_union();
  cost.cpu += cpu_.crypto_time(2ULL * records, record_bytes);
  return cost;
}

cost_split path_oram::replay(std::size_t op) {
  const planned_op& planned = group_[op];
  const block_id requested = planned.op.id;
  const std::uint64_t z = config_.bucket_size;
  const std::size_t payload_bytes = config_.payload_bytes;
  const auto window_payload = [&](std::size_t record) {
    return std::span(window_payloads_)
        .subspan(record * payload_bytes, payload_bytes);
  };

  // Remap at the op's turn, as access() does before its path read.
  if (requested != dummy_block_id && !planned.extract) {
    if (planned.first_touch) {
      ++resident_;
    }
    positions_.assign(requested, planned.remap);
  }

  // Move every real block of the path into the stash, root to leaf.
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    const std::size_t first = window_position(op, level) * z;
    for (std::uint64_t k = 0; k < z; ++k) {
      const block_id id = window_ids_[first + k];
      if (id == dummy_block_id) {
        continue;
      }
      invariant(positions_.contains(id),
                "tree holds a block missing from the position map");
      stash_.put(id, positions_.leaf_of(id), window_payload(first + k));
    }
  }

  // Serve the request from the stash.
  if (requested != dummy_block_id) {
    if (!stash_.contains(requested)) {
      // First-ever touch: the block materialises zero-filled.
      stash_.put(requested, positions_.leaf_of(requested), zero_payload_);
    }
    stash_entry& entry = stash_.at(requested);
    // The request was remapped before the path read; a block that was
    // already sheltering in the stash must follow its new leaf, or the
    // write-back would strand it off its position-map path.
    entry.leaf = positions_.leaf_of(requested);
    if (!planned.op.read_out.empty()) {
      std::memcpy(planned.op.read_out.data(), entry.payload.data(),
                  payload_bytes);
    }
    if (planned.op.op == op_kind::write) {
      std::fill(entry.payload.begin(), entry.payload.end(), 0);
      std::memcpy(entry.payload.data(), planned.op.write_data.data(),
                  planned.op.write_data.size());
    }
    if (planned.op.updater != nullptr) {
      (*planned.op.updater)(
          std::span<std::uint8_t>(entry.payload.data(), entry.payload.size()));
    }
    if (planned.extract) {
      // The live copy leaves the tree: drop it from the stash and the
      // position map before the write-back re-places the path.
      stash_.erase(requested);
      positions_.remove(requested);
      --resident_;
    }
  }

  // Greedy write-back into the working set, deepest bucket first: each
  // bucket of the path takes up to Z stash blocks whose path shares it,
  // dummies fill the rest. Later ops of the group read these buckets
  // back exactly as they would read them from the store.
  for (std::uint32_t down = 0; down < level_count_; ++down) {
    const std::uint32_t level = level_count_ - 1 - down;
    selected_.clear();
    for (const auto& [id, entry] : stash_) {
      if (paths_share_bucket(entry.leaf, planned.leaf, level)) {
        selected_.push_back(id);
        if (selected_.size() == z) {
          break;
        }
      }
    }
    const std::size_t first = window_position(op, level) * z;
    for (std::uint64_t k = 0; k < z; ++k) {
      if (k >= selected_.size()) {
        window_ids_[first + k] = dummy_block_id;
        continue;
      }
      const block_id id = selected_[k];
      const std::vector<std::uint8_t>& payload = stash_.at(id).payload;
      std::copy(payload.begin(), payload.end(),
                window_payload(first + k).begin());
      window_ids_[first + k] = id;
      stash_.erase(id);
    }
  }

  // Control-layer cost of the op: map and stash bookkeeping over the
  // records a lone path access touches (run_group charges the crypto).
  cost_split cost;
  cost.cpu += cpu_.word_ops_time(2ULL * level_count_ * z + stash_.size());
  return cost;
}

cost_split path_oram::access(op_kind op, block_id id,
                             std::span<const std::uint8_t> write_data,
                             std::span<std::uint8_t> read_out) {
  expects(id != dummy_block_id, "cannot access the dummy id");
  const path_op one{id, op, write_data, read_out};
  return access_group({&one, 1});
}

cost_split path_oram::access_rmw(
    block_id id,
    const std::function<void(std::span<std::uint8_t>)>& updater) {
  expects(id != dummy_block_id, "cannot access the dummy id");
  expects(static_cast<bool>(updater), "rmw needs an updater");
  path_op one;
  one.id = id;
  one.updater = &updater;
  return access_group({&one, 1});
}

cost_split path_oram::dummy_access() {
  const path_op one;
  return access_group({&one, 1});
}

cost_split path_oram::access_group(std::span<const path_op> ops) {
  expects(!ops.empty(), "a group needs at least one access");
  expects(ops.size() == 1 || !io_store_,
          "groups of more than one access need a fully in-memory tree");
  for (const path_op& op : ops) {
    if (op.id == dummy_block_id) {
      continue;
    }
    expects(op.id < positions_.universe(), "block id outside the universe");
    if (op.op == op_kind::write) {
      expects(op.write_data.size() <= config_.payload_bytes,
              "write larger than the block payload");
    }
    expects(op.read_out.empty() || op.read_out.size() >= config_.payload_bytes,
            "read buffer too small");
  }

  reserve_group(ops.size());

  // Pre-pass: every op's draws, in the order the one-at-a-time calls
  // take them, so the union is known before the read. The remaps are
  // applied later, each at its op's turn; an id an earlier op of the
  // group touched reads the path that op remapped it to.
  group_.clear();
  for (const path_op& op : ops) {
    planned_op& planned = group_.emplace_back();
    planned.op = op;
    if (op.id == dummy_block_id) {
      ++stats_.dummy_accesses;
      planned.leaf = util::uniform_below(rng_, config_.leaf_count);
      continue;
    }
    ++stats_.real_accesses;
    const auto earlier = std::find_if(
        std::next(group_.rbegin()), group_.rend(),
        [&](const planned_op& other) { return other.op.id == op.id; });
    if (earlier != group_.rend()) {
      planned.leaf = earlier->remap;
    } else if (positions_.contains(op.id)) {
      planned.leaf = positions_.leaf_of(op.id);
    } else {
      planned.leaf = util::uniform_below(rng_, config_.leaf_count);
      planned.first_touch = true;
    }
    // Remapped before the path read so repeated accesses never repeat
    // leaves.
    planned.remap = util::uniform_below(rng_, config_.leaf_count);
  }
  return run_group();
}

cost_split path_oram::extract(block_id id,
                              std::span<std::uint8_t> read_out) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(positions_.contains(id), "extract of a non-resident block");
  expects(read_out.empty() || read_out.size() >= config_.payload_bytes,
          "read buffer too small");
  ++stats_.real_accesses;
  // No remap: the block leaves the tree, so its (about to be read) path
  // is never correlated with a future access.
  group_.clear();
  planned_op& planned = group_.emplace_back();
  planned.op.id = id;
  planned.op.read_out = read_out;
  planned.leaf = positions_.leaf_of(id);
  planned.extract = true;
  return run_group();
}

cost_split path_oram::force_evict() {
  ++stats_.forced_evictions;
  group_.clear();
  group_.emplace_back().leaf =
      util::reverse_bits(evict_counter_++, level_count_ - 1);
  return run_group();
}

cost_split path_oram::install(block_id id,
                              std::span<const std::uint8_t> payload) {
  return install(id, payload, util::uniform_below(rng_, config_.leaf_count));
}

cost_split path_oram::install(block_id id,
                              std::span<const std::uint8_t> payload,
                              leaf_id leaf) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(!positions_.contains(id), "block already resident");
  expects(leaf < config_.leaf_count, "install leaf out of range");
  positions_.assign(id, leaf);
  stash_.put(id, leaf, payload);
  ++resident_;
  ++stats_.installs;

  cost_split cost;
  cost.cpu += cpu_.word_ops_time(4);
  return cost;
}

cost_split path_oram::evict_all(std::vector<evicted_block>& out) {
  cost_split cost;
  // The whole-tree sweep is one streamed batch on each lane.
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  ++stats_.evictions;
  out.clear();

  const std::size_t record_bytes = codec_.record_bytes();
  const std::size_t payload_bytes = config_.payload_bytes;

  // 1) Stream the whole tree (sequential sweeps) and decode in batches.
  std::vector<block_id> ids(codec_batch_records);
  std::vector<std::uint8_t> payloads(codec_batch_records * payload_bytes);
  const auto take_reals = [&](std::span<const std::uint8_t> records) {
    for (std::size_t first = 0; first < records.size();
         first += codec_batch_records * record_bytes) {
      const std::size_t n = std::min<std::size_t>(
          codec_batch_records, (records.size() - first) / record_bytes);
      codec_.decode_many(records.subspan(first, n * record_bytes),
                         std::span(ids).first(n),
                         std::span(payloads).first(n * payload_bytes));
      for (std::size_t k = 0; k < n; ++k) {
        if (ids[k] == dummy_block_id) {
          continue;
        }
        const auto payload =
            std::span(payloads).subspan(k * payload_bytes, payload_bytes);
        out.push_back(evicted_block{ids[k], {payload.begin(), payload.end()}});
      }
    }
  };
  // Decoded straight from the store: no host copy of the tree.
  const auto sweep = [&](storage::block_store& store, bool memory_lane) {
    const std::uint64_t slots = store.slot_count();
    for (std::uint64_t first = 0; first < slots;
         first += sweep_chunk_records) {
      const std::uint64_t count =
          std::min(sweep_chunk_records, slots - first);
      sim::sim_time t = 0;
      take_reals(store.view_range(first, count, t));
      (memory_lane ? cost.memory : cost.io) += t;
    }
  };
  if (memory_store_) {
    sweep(*memory_store_, /*memory_lane=*/true);
  }
  if (io_store_ && !page_) {
    sweep(*io_store_, /*memory_lane=*/false);
  } else if (io_store_) {
    // Page layout: stream segment by segment, skipping never-written
    // segments outright — they hold only dummies, so the scan loses
    // nothing and the device is spared the transfer. The skip pattern
    // is the (public) valid-bit occupancy, not a function of block
    // identities.
    std::vector<std::uint8_t> chunk;
    for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
      const std::uint64_t records = page_->segment_records(g);
      chunk.resize(records * record_bytes);
      for (std::uint64_t s = 0; s < page_->segment_count(g); ++s) {
        const storage::segment_ref segment{g, s};
        if (!segment_valid(segment)) {
          continue;
        }
        cost.io += io_store_->read_range(page_->segment_first_slot(segment),
                                         records, chunk);
        take_reals(chunk);
      }
    }
  }

  // Stash contents are part of the eviction too.
  for (const auto& [id, entry] : stash_) {
    out.push_back(evicted_block{id, entry.payload});
  }

  // 2) Oblivious shuffle of the eviction buffer. Correctness-wise a
  // uniform shuffle; cost-wise the K-oblivious cache shuffle the paper
  // selects: two passes over all tree slots (spray + clean), each pass
  // decrypting and re-encrypting every record and moving it through
  // memory once.
  const std::uint64_t total_slots = capacity_blocks();
  cost.cpu += cpu_.crypto_time(4 * total_slots, record_bytes);
  const std::uint64_t sweep_bytes = total_slots * logical_bytes_;
  cost.memory += memory_device_.read(0, sweep_bytes);
  cost.memory += memory_device_.write(0, sweep_bytes);
  cost.memory += memory_device_.read(0, sweep_bytes);
  cost.memory += memory_device_.write(0, sweep_bytes);

  std::vector<std::uint64_t> order = util::random_permutation(
      rng_, static_cast<std::uint64_t>(out.size()));
  std::vector<evicted_block> shuffled(out.size());
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    shuffled[order[i]] = std::move(out[i]);
  }
  out = std::move(shuffled);

  // 3) Dummies were dropped during the decode scan; clear logical state.
  invariant(out.size() == resident_, "eviction lost blocks");
  positions_.clear();
  stash_.clear();
  resident_ = 0;
  return cost;
}

void path_oram::for_each_resident(
    const std::function<void(block_id, leaf_id,
                             std::span<const std::uint8_t>)>& visit)
    const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  const std::uint64_t z = config_.bucket_size;
  if (memory_store_) {
    for (std::uint64_t slot = 0; slot < memory_store_->slot_count(); ++slot) {
      const block_id id = codec_.decode(memory_store_->peek(slot), payload);
      if (id == dummy_block_id) {
        continue;
      }
      visit(id, positions_.leaf_of(id), payload);
    }
  }
  if (io_store_) {
    // Bucket-major: heap order regardless of the device-side layout
    // (under flat the slot order coincides with it).
    for (std::uint64_t bucket = memory_bucket_count_; bucket < bucket_count_;
         ++bucket) {
      const unsigned level = util::floor_log2(bucket + 1);
      const std::uint64_t position = bucket - ((std::uint64_t{1} << level) - 1);
      const std::uint64_t first =
          page_ ? page_->bucket_first_slot(level, position)
                : (bucket - memory_bucket_count_) * z;
      for (std::uint64_t k = 0; k < z; ++k) {
        const block_id id = codec_.decode(io_store_->peek(first + k), payload);
        if (id == dummy_block_id) {
          continue;
        }
        visit(id, positions_.leaf_of(id), payload);
      }
    }
  }
  for (const auto& [id, entry] : stash_) {
    visit(id, entry.leaf, entry.payload);
  }
}

void path_oram::check_consistency() const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  std::vector<std::uint8_t> seen(positions_.universe(), 0);
  std::uint64_t found = 0;
  const std::uint64_t z = config_.bucket_size;

  const auto check_record = [&](std::span<const std::uint8_t> record,
                                std::uint64_t bucket) {
    const block_id id = codec_.decode(record, payload);
    if (id == dummy_block_id) {
      return;
    }
    invariant(id < positions_.universe(),
              "tree holds an out-of-universe block");
    invariant(positions_.contains(id),
              "tree holds a block missing from the position map");
    invariant(seen[id] == 0, "block stored in two tree slots");
    seen[id] = 1;
    ++found;
    const unsigned level = util::floor_log2(bucket + 1);
    invariant(bucket == bucket_on_path(positions_.leaf_of(id), level),
              "block stored off its position-map path");
  };
  if (memory_store_) {
    for (std::uint64_t slot = 0; slot < memory_store_->slot_count(); ++slot) {
      check_record(memory_store_->peek(slot), slot / z);
    }
  }
  if (io_store_) {
    for (std::uint64_t bucket = memory_bucket_count_; bucket < bucket_count_;
         ++bucket) {
      const unsigned level = util::floor_log2(bucket + 1);
      const std::uint64_t position = bucket - ((std::uint64_t{1} << level) - 1);
      const std::uint64_t first =
          page_ ? page_->bucket_first_slot(level, position)
                : (bucket - memory_bucket_count_) * z;
      for (std::uint64_t k = 0; k < z; ++k) {
        check_record(io_store_->peek(first + k), bucket);
      }
      if (page_ && !valid_->test(bucket - memory_bucket_count_)) {
        // Never-written buckets are skipped on the device; their host
        // image must therefore still be all-dummy, or a skip would lose
        // data.
        for (std::uint64_t k = 0; k < z; ++k) {
          invariant(codec_.decode(io_store_->peek(first + k), payload) ==
                        dummy_block_id,
                    "invalid bucket holds a real block");
        }
      }
    }
  }

  for (const auto& [id, entry] : stash_) {
    invariant(id < positions_.universe(),
              "stash holds an out-of-universe block");
    invariant(positions_.contains(id),
              "stash holds a block missing from the position map");
    invariant(entry.leaf == positions_.leaf_of(id),
              "stash leaf disagrees with the position map");
    invariant(seen[id] == 0, "block in both the tree and the stash");
    seen[id] = 1;
    ++found;
    invariant(entry.payload.size() == config_.payload_bytes,
              "stash payload has the wrong size");
  }

  invariant(found == resident_, "resident counter out of sync");
  invariant(positions_.size() == resident_,
            "position map size disagrees with the resident count");
}

cost_split path_oram::reset() {
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  const std::size_t record_bytes = codec_.record_bytes();

  // Dummies are sealed straight into the store: no host copy of the
  // tree.
  const auto rewrite = [&](storage::block_store& store, bool memory_lane) {
    const std::uint64_t slots = store.slot_count();
    for (std::uint64_t first = 0; first < slots;
         first += sweep_chunk_records) {
      const std::uint64_t count =
          std::min(sweep_chunk_records, slots - first);
      sim::sim_time t = 0;
      codec_.encode_dummies(store.fill_range(first, count, t));
      (memory_lane ? cost.memory : cost.io) += t;
    }
    cost.cpu += cpu_.crypto_time(slots, record_bytes);
  };
  if (memory_store_) {
    rewrite(*memory_store_, /*memory_lane=*/true);
  }
  if (io_store_ && !page_) {
    rewrite(*io_store_, /*memory_lane=*/false);
  } else if (io_store_) {
    // Page layout: clearing the valid bits IS the reinitialisation —
    // every bucket reads as all-dummy without a single device write (or
    // the crypto to produce records the device never has to see). The
    // host image is primed with encoded dummies so skipped reads and
    // audit peeks stay decodable.
    const std::size_t record = codec_.record_bytes();
    codec_.encode_dummy(
        std::span<std::uint8_t>(bucket_scratch_.data(), record));
    for (std::uint64_t slot = 0; slot < io_store_->slot_count(); ++slot) {
      io_store_->prime(
          slot, std::span<const std::uint8_t>(bucket_scratch_.data(), record));
    }
    valid_->clear();
  }

  positions_.clear();
  stash_.clear();
  resident_ = 0;
  return cost;
}

cost_split path_oram::initialize_full(
    std::uint64_t count,
    const std::function<void(block_id, std::span<std::uint8_t>)>& filler,
    std::vector<leaf_id>* leaves_out) {
  expects(count <= positions_.universe(), "more blocks than the universe");
  expects(count <= capacity_blocks(), "tree cannot hold that many blocks");
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);

  // Assign leaves and group ids by leaf (counting sort).
  std::vector<leaf_id> leaves(count);
  std::vector<std::uint64_t> leaf_counts(config_.leaf_count, 0);
  for (block_id id = 0; id < count; ++id) {
    leaves[id] = util::uniform_below(rng_, config_.leaf_count);
    ++leaf_counts[leaves[id]];
    positions_.assign(id, leaves[id]);
  }
  std::vector<std::uint64_t> leaf_offsets(config_.leaf_count + 1, 0);
  for (leaf_id l = 0; l < config_.leaf_count; ++l) {
    leaf_offsets[l + 1] = leaf_offsets[l] + leaf_counts[l];
  }
  std::vector<block_id> ids_by_leaf(count);
  {
    std::vector<std::uint64_t> cursor(leaf_offsets.begin(),
                                      leaf_offsets.end() - 1);
    for (block_id id = 0; id < count; ++id) {
      ids_by_leaf[cursor[leaves[id]]++] = id;
    }
  }

  // Materialise payloads once (indexable by id during the build).
  std::vector<std::uint8_t> payloads(count * config_.payload_bytes, 0);
  for (block_id id = 0; id < count; ++id) {
    filler(id, std::span<std::uint8_t>(
                   payloads.data() + id * config_.payload_bytes,
                   config_.payload_bytes));
  }

  // Bottom-up greedy placement: post-order DFS; each node packs up to Z
  // pending blocks (all of which have this bucket on their path) and
  // passes the rest to its parent.
  const std::uint64_t z = config_.bucket_size;
  const std::size_t record_bytes = codec_.record_bytes();
  std::vector<std::uint8_t> tree_image(bucket_count_ * z * record_bytes);
  codec_.encode_dummies(tree_image);
  std::vector<std::uint8_t> real_in_bucket(bucket_count_, 0);
  // Placed blocks are sealed in placement order, a batch at a time,
  // through a staging run; then each record moves to its slot.
  std::vector<block_codec::block_ref> refs;
  std::vector<std::uint64_t> slots;
  std::vector<std::uint8_t> staging(codec_batch_records * record_bytes);
  const auto seal_placed = [&] {
    codec_.encode_many(refs, std::span(staging).first(refs.size() *
                                                      record_bytes));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      std::memcpy(tree_image.data() + slots[i] * record_bytes,
                  staging.data() + i * record_bytes, record_bytes);
    }
    refs.clear();
    slots.clear();
  };

  const std::function<std::vector<block_id>(std::uint32_t, std::uint64_t)>
      build = [&](std::uint32_t level,
                  std::uint64_t node_in_level) -> std::vector<block_id> {
    std::vector<block_id> pending;
    if (level == level_count_ - 1) {
      const std::uint64_t first = leaf_offsets[node_in_level];
      const std::uint64_t last = leaf_offsets[node_in_level + 1];
      pending.assign(ids_by_leaf.begin() + static_cast<std::ptrdiff_t>(first),
                     ids_by_leaf.begin() + static_cast<std::ptrdiff_t>(last));
    } else {
      pending = build(level + 1, 2 * node_in_level);
      std::vector<block_id> right = build(level + 1, 2 * node_in_level + 1);
      pending.insert(pending.end(), right.begin(), right.end());
    }

    const std::uint64_t bucket =
        ((std::uint64_t{1} << level) - 1) + node_in_level;
    const std::uint64_t take = std::min<std::uint64_t>(z, pending.size());
    if (take > 0) {
      real_in_bucket[bucket] = 1;
    }
    for (std::uint64_t k = 0; k < take; ++k) {
      const block_id id = pending[pending.size() - 1 - k];
      refs.push_back({id, std::span<const std::uint8_t>(
                              payloads.data() + id * config_.payload_bytes,
                              config_.payload_bytes)});
      slots.push_back(bucket * z + k);
      if (refs.size() == codec_batch_records) {
        seal_placed();
      }
    }
    pending.resize(pending.size() - take);
    return pending;
  };
  std::vector<block_id> overflow = build(0, 0);
  seal_placed();
  for (const block_id id : overflow) {
    stash_.put(id, leaves[id],
               std::span<const std::uint8_t>(
                   payloads.data() + id * config_.payload_bytes,
                   config_.payload_bytes));
  }

  // Stream the image out as sequential sweeps on both lanes.
  const std::uint64_t memory_slots =
      memory_store_ ? memory_store_->slot_count() : 0;
  for (std::uint64_t first = 0; first < memory_slots;
       first += sweep_chunk_records) {
    const std::uint64_t n = std::min(sweep_chunk_records,
                                     memory_slots - first);
    cost.memory += memory_store_->write_range(
        first, n,
        std::span<const std::uint8_t>(
            tree_image.data() + first * record_bytes, n * record_bytes));
  }
  if (io_store_ && !page_) {
    const std::uint64_t io_slots = io_store_->slot_count();
    for (std::uint64_t first = 0; first < io_slots;
         first += sweep_chunk_records) {
      const std::uint64_t n =
          std::min(sweep_chunk_records, io_slots - first);
      cost.io += io_store_->write_range(
          first, n,
          std::span<const std::uint8_t>(
              tree_image.data() + (memory_slots + first) * record_bytes,
              n * record_bytes));
    }
  } else if (io_store_) {
    // Page layout: only segments holding a real block reach the device;
    // all-dummy segments are primed host-side and stay invalid, so the
    // bulk of the initial image is never transferred. Which segments
    // qualify depends on the uniform leaf draw alone.
    std::vector<std::uint8_t> segment_bytes;
    valid_->clear();
    for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
      const std::uint64_t records = page_->segment_records(g);
      segment_bytes.resize(records * record_bytes);
      const std::uint32_t top = page_->group_top_level(g);
      for (std::uint64_t s = 0; s < page_->segment_count(g); ++s) {
        const storage::segment_ref segment{g, s};
        bool has_real = false;
        for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
          const std::uint32_t level = top + d;
          for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
            const std::uint64_t position = (s << d) | j;
            const std::uint64_t bucket =
                ((std::uint64_t{1} << level) - 1) + position;
            has_real = has_real || real_in_bucket[bucket] != 0;
            const std::uint64_t index =
                page_->bucket_index_in_segment(level, position);
            std::memcpy(segment_bytes.data() + index * z * record_bytes,
                        tree_image.data() + bucket * z * record_bytes,
                        z * record_bytes);
          }
        }
        const std::uint64_t first = page_->segment_first_slot(segment);
        if (has_real) {
          cost.io += io_store_->write_range(first, records, segment_bytes);
          mark_segment_valid(segment);
        } else {
          for (std::uint64_t r = 0; r < records; ++r) {
            io_store_->prime(
                r + first,
                std::span<const std::uint8_t>(
                    segment_bytes.data() + r * record_bytes, record_bytes));
          }
        }
      }
    }
  }
  cost.cpu += cpu_.crypto_time(bucket_count_ * z, record_bytes);

  resident_ = count;
  if (leaves_out != nullptr) {
    *leaves_out = leaves;
  }
  return cost;
}

}  // namespace horam::oram
