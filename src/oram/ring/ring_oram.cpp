#include "oram/ring/ring_oram.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Chunk size (records) for sequential sweeps, to bound host buffers.
constexpr std::uint64_t sweep_chunk_records = 1 << 14;

/// splitmix64 finaliser — the pad stream's mixing function.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ring_oram::ring_oram(const ring_oram_config& config,
                     sim::block_device& io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace)
    : config_(config),
      level_count_(static_cast<std::uint32_t>(
          util::floor_log2(config.leaf_count) + 1)),
      bucket_count_(2 * config.leaf_count - 1),
      codec_(config.payload_bytes, config.seal, config.key_seed),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      positions_(config.id_universe) {
  expects(util::is_pow2(config.leaf_count), "leaf count must be 2^k");
  expects(config.real_slots > 0, "real slots (Z) must be positive");
  expects(config.spare_slots > 0, "spare slots (S) must be positive");
  expects(config.eviction_rate > 0, "eviction rate (A) must be positive");
  expects(config.id_universe > 0, "id universe must be positive");

  const std::uint64_t logical =
      config.logical_block_bytes != 0 ? config.logical_block_bytes
                                      : codec_.record_bytes();
  expects(logical >= codec_.record_bytes(),
          "logical block smaller than the encoded record");
  logical_bytes_ = logical;

  io_store_ = std::make_unique<storage::block_store>(
      io_device, /*base_offset=*/0, total_slots(), codec_.record_bytes(),
      logical);

  slots_.resize(total_slots());
  buckets_.resize(bucket_count_);

  const std::size_t record_bytes = codec_.record_bytes();
  chosen_slots_.reserve(level_count_);
  slot_order_.resize(slots_per_bucket());
  bucket_scratch_.resize(slots_per_bucket() * record_bytes);
  record_scratch_.resize(record_bytes);
  combined_scratch_.resize(record_bytes);
  pad_scratch_.resize(record_bytes);
  payload_scratch_.resize(config.payload_bytes);
  extracted_payload_.resize(config.payload_bytes);

  // Start with a physically pad-filled tree.
  reset();
}

std::uint64_t ring_oram::bucket_on_path(leaf_id leaf,
                                        std::uint32_t level) const {
  return ((std::uint64_t{1} << level) - 1) +
         (leaf >> (level_count_ - 1 - level));
}

bool ring_oram::paths_share_bucket(leaf_id a, leaf_id b,
                                   std::uint32_t level) const {
  const std::uint32_t shift = level_count_ - 1 - level;
  return (a >> shift) == (b >> shift);
}

leaf_id ring_oram::reverse_lex_leaf(std::uint64_t counter) const {
  return util::reverse_bits(counter, level_count_ - 1);
}

void ring_oram::fill_pad(std::uint64_t slot, std::uint64_t epoch,
                         std::span<std::uint8_t> out) const {
  const std::uint64_t seed =
      mix64(config_.key_seed ^ mix64(slot) ^ mix64(epoch ^ 0x5061644cULL));
  for (std::size_t i = 0; i < codec_.record_bytes(); i += 8) {
    const std::uint64_t word = mix64(seed + 1 + i / 8);
    const std::size_t n = std::min<std::size_t>(8, codec_.record_bytes() - i);
    std::memcpy(out.data() + i, &word, n);
  }
}

cost_split ring_oram::path_read(leaf_id leaf, block_id target, bool& found) {
  cost_split cost;
  found = false;
  trace(trace_, event_kind::memory_path_access, leaf, config_.leaf_count);

  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();

  // Choose one slot per path bucket: the real slot when the target
  // lives there, a uniformly random unread dummy otherwise. Real slots
  // are placed at uniformly random slots on every bucket rewrite, so
  // the two choices are identically distributed on the bus.
  chosen_slots_.clear();
  std::uint64_t real_slot = 0;
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    const std::uint64_t base = bucket * spb;
    std::uint64_t chosen = total_slots();
    if (target != dummy_block_id) {
      for (std::uint32_t k = 0; k < spb; ++k) {
        if (slots_[base + k].id == target) {
          invariant(!slots_[base + k].read, "real slot already consumed");
          chosen = base + k;
          found = true;
          real_slot = chosen;
          break;
        }
      }
    }
    if (chosen == total_slots()) {
      std::uint32_t candidates = 0;
      for (std::uint32_t k = 0; k < spb; ++k) {
        const slot_meta& meta = slots_[base + k];
        if (meta.id == dummy_block_id && !meta.read) {
          slot_order_[candidates++] = k;
        }
      }
      invariant(candidates > 0,
                "bucket ran out of unread dummies before its reshuffle");
      chosen = base + slot_order_[util::uniform_below(rng_, candidates)];
    }
    chosen_slots_.push_back(chosen);
  }

  // The adversary's view: which physical slots were requested. Both
  // read modes name the same slots; XOR only changes how many blocks
  // cross the bus.
  for (const std::uint64_t slot : chosen_slots_) {
    trace(trace_, event_kind::storage_read_slot, slot);
  }

  if (config_.xor_reads) {
    // One combined transfer; the real record is recovered by XORing
    // out the (deterministic, client-computable) pads of every chosen
    // dummy slot.
    cost.io += io_store_->read_xor(chosen_slots_, combined_scratch_);
    if (found) {
      for (const std::uint64_t slot : chosen_slots_) {
        if (slot == real_slot) {
          continue;
        }
        fill_pad(slot, buckets_[slot / spb].epoch, pad_scratch_);
        for (std::size_t i = 0; i < record_bytes; ++i) {
          combined_scratch_[i] ^= pad_scratch_[i];
        }
      }
      const block_id id = codec_.decode(combined_scratch_, payload_scratch_);
      invariant(id == target, "XOR-combined read recovered the wrong block");
      std::memcpy(extracted_payload_.data(), payload_scratch_.data(),
                  config_.payload_bytes);
    }
  } else {
    // Fallback: one device read per chosen slot.
    for (const std::uint64_t slot : chosen_slots_) {
      cost.io += io_store_->read(slot, record_scratch_);
      if (found && slot == real_slot) {
        std::memcpy(combined_scratch_.data(), record_scratch_.data(),
                    record_bytes);
      }
    }
    if (found) {
      const block_id id = codec_.decode(combined_scratch_, payload_scratch_);
      invariant(id == target, "slot read recovered the wrong block");
      std::memcpy(extracted_payload_.data(), payload_scratch_.data(),
                  config_.payload_bytes);
    }
  }

  // Consume the chosen slots; an extracted real slot becomes a spent
  // dummy until the bucket's next rewrite.
  for (const std::uint64_t slot : chosen_slots_) {
    slots_[slot].read = true;
    if (found && slot == real_slot) {
      slots_[slot].id = dummy_block_id;
    }
    ++buckets_[slot / spb].read_count;
  }

  // Control-layer cost: pad regeneration + decode along the path, plus
  // metadata bookkeeping.
  cost.cpu += cpu_.crypto_time(level_count_ + 1, record_bytes);
  cost.cpu += cpu_.word_ops_time(static_cast<std::uint64_t>(level_count_) *
                                     spb +
                                 stash_.size());

  // Early reshuffles: any path bucket out of spare slots is rewritten
  // now, which keeps an unread dummy available for every future access.
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    if (buckets_[bucket].read_count >= config_.spare_slots) {
      cost += reshuffle_bucket(bucket);
    }
  }

  // Deterministic eviction every A accesses — a public schedule that
  // depends only on the access count.
  ++access_count_;
  if (access_count_ % config_.eviction_rate == 0) {
    cost += evict_path();
  }
  return cost;
}

cost_split ring_oram::extract(block_id id, std::span<std::uint8_t> read_out) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(positions_.contains(id), "extract of a non-resident block");
  expects(read_out.size() >= config_.payload_bytes,
          "read buffer too small");
  ++stats_.real_accesses;
  // One access = one dependent exchange: the slot choices are known up
  // front from trusted metadata, and any eviction/reshuffle the access
  // triggers rides the same public schedule.
  sim::trip_scope round_trip(&io_store_->device());

  // No remap: the block leaves the tree, so its (about to be read) path
  // is never correlated with a future access.
  const leaf_id leaf = positions_.leaf_of(id);
  if (stash_.contains(id)) {
    // Sheltering in the stash: serve from trusted memory and take the
    // block out BEFORE the cover path read — the read can trigger an
    // eviction, which would otherwise write the block into the tree
    // mid-extract. The all-dummy path read keeps the bus shape.
    const stash_entry& entry = stash_.at(id);
    std::memcpy(read_out.data(), entry.payload.data(),
                config_.payload_bytes);
    stash_.erase(id);
    positions_.remove(id);
    --resident_;
    bool found = false;
    return path_read(leaf, dummy_block_id, found);
  }
  bool found = false;
  const cost_split cost = path_read(leaf, id, found);
  invariant(found, "resident block missing from its path");
  std::memcpy(read_out.data(), extracted_payload_.data(),
              config_.payload_bytes);
  positions_.remove(id);
  --resident_;
  return cost;
}

cost_split ring_oram::dummy_access() {
  ++stats_.dummy_accesses;
  sim::trip_scope round_trip(&io_store_->device());
  const leaf_id leaf = util::uniform_below(rng_, config_.leaf_count);
  bool found = false;
  return path_read(leaf, dummy_block_id, found);
}

cost_split ring_oram::install(block_id id,
                              std::span<const std::uint8_t> payload) {
  return install(id, payload, util::uniform_below(rng_, config_.leaf_count));
}

cost_split ring_oram::install(block_id id,
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

cost_split ring_oram::force_evict() {
  sim::trip_scope round_trip(&io_store_->device());
  return evict_path();
}

void ring_oram::compose_bucket(
    std::uint64_t bucket, std::span<const block_id> ids,
    const std::function<std::span<const std::uint8_t>(block_id)>& payload_of,
    std::span<std::uint8_t> out) {
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();
  expects(ids.size() <= config_.real_slots, "bucket overfull");
  expects(out.size() >= spb * record_bytes, "bucket buffer too small");

  bucket_state& state = buckets_[bucket];
  ++state.epoch;
  state.read_count = 0;

  // Fresh secret permutation: the reals land at uniformly random
  // distinct slots (partial Fisher–Yates), everything else is a pad.
  for (std::uint32_t k = 0; k < spb; ++k) {
    slot_order_[k] = k;
  }
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>(
        util::uniform_in(rng_, i, spb - 1));
    std::swap(slot_order_[i], slot_order_[j]);
  }

  const std::uint64_t base = bucket * spb;
  for (std::uint32_t k = 0; k < spb; ++k) {
    slots_[base + k] = slot_meta{dummy_block_id, false};
    fill_pad(base + k, state.epoch,
             std::span<std::uint8_t>(out.data() + k * record_bytes,
                                     record_bytes));
  }
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t k = slot_order_[i];
    slots_[base + k] = slot_meta{ids[i], false};
    codec_.encode(ids[i], payload_of(ids[i]),
                  std::span<std::uint8_t>(out.data() + k * record_bytes,
                                          record_bytes));
  }
}

cost_split ring_oram::reshuffle_bucket(std::uint64_t bucket) {
  cost_split cost;
  ++stats_.early_reshuffles;
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();
  const std::uint64_t base = bucket * spb;

  // Whole-bucket range read; the residents keep their paths, only the
  // permutation and the pads are refreshed.
  cost.io += io_store_->read_range(base, spb, bucket_scratch_);
  trace(trace_, event_kind::storage_read_sweep, base, spb);

  std::vector<block_id> ids;
  std::vector<std::uint8_t> payloads;
  for (std::uint32_t k = 0; k < spb; ++k) {
    const slot_meta& meta = slots_[base + k];
    if (meta.id == dummy_block_id) {
      continue;
    }
    const std::span<const std::uint8_t> record(
        bucket_scratch_.data() + k * record_bytes, record_bytes);
    const block_id id = codec_.decode(record, payload_scratch_);
    invariant(id == meta.id, "slot metadata disagrees with the record");
    ids.push_back(id);
    payloads.insert(payloads.end(), payload_scratch_.begin(),
                    payload_scratch_.end());
  }

  compose_bucket(
      bucket, ids,
      [&](block_id id) -> std::span<const std::uint8_t> {
        const std::uint64_t i = static_cast<std::uint64_t>(
            std::find(ids.begin(), ids.end(), id) - ids.begin());
        return {payloads.data() + i * config_.payload_bytes,
                config_.payload_bytes};
      },
      bucket_scratch_);
  cost.io += io_store_->write_range(base, spb, bucket_scratch_);
  trace(trace_, event_kind::storage_write_sweep, base, spb);

  cost.cpu += cpu_.crypto_time(2ULL * spb, record_bytes);
  cost.cpu += cpu_.word_ops_time(spb);
  return cost;
}

cost_split ring_oram::evict_path() {
  cost_split cost;
  ++stats_.evictions;
  const leaf_id leaf = reverse_lex_leaf(evict_counter_++);
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();

  // Phase 1, root to leaf: range-read every path bucket and move its
  // residents into the stash.
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    const std::uint64_t base = bucket * spb;
    cost.io += io_store_->read_range(base, spb, bucket_scratch_);
    trace(trace_, event_kind::storage_read_sweep, base, spb);
    for (std::uint32_t k = 0; k < spb; ++k) {
      const slot_meta& meta = slots_[base + k];
      if (meta.id == dummy_block_id) {
        continue;
      }
      const std::span<const std::uint8_t> record(
          bucket_scratch_.data() + k * record_bytes, record_bytes);
      const block_id id = codec_.decode(record, payload_scratch_);
      invariant(id == meta.id, "slot metadata disagrees with the record");
      invariant(positions_.contains(id),
                "tree holds a block missing from the position map");
      stash_.put(id, positions_.leaf_of(id), payload_scratch_);
    }
  }

  // Phase 2, leaf to root: greedy write-back under fresh permutations.
  std::vector<block_id> selected;
  for (std::uint32_t down = 0; down < level_count_; ++down) {
    const std::uint32_t level = level_count_ - 1 - down;
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    const std::uint64_t base = bucket * spb;
    selected.clear();
    for (const auto& [id, entry] : stash_) {
      if (paths_share_bucket(entry.leaf, leaf, level)) {
        selected.push_back(id);
        if (selected.size() == config_.real_slots) {
          break;
        }
      }
    }
    compose_bucket(
        bucket, selected,
        [&](block_id id) -> std::span<const std::uint8_t> {
          const stash_entry& entry = stash_.at(id);
          return {entry.payload.data(), entry.payload.size()};
        },
        bucket_scratch_);
    cost.io += io_store_->write_range(base, spb, bucket_scratch_);
    trace(trace_, event_kind::storage_write_sweep, base, spb);
    for (const block_id id : selected) {
      stash_.erase(id);
    }
  }

  const std::uint64_t records_touched =
      2ULL * level_count_ * spb;
  cost.cpu += cpu_.crypto_time(records_touched, record_bytes);
  cost.cpu += cpu_.word_ops_time(records_touched + stash_.size());
  return cost;
}

void ring_oram::reset() {
  const std::size_t record_bytes = codec_.record_bytes();
  for (std::uint64_t bucket = 0; bucket < bucket_count_; ++bucket) {
    buckets_[bucket] = bucket_state{};
  }
  std::fill(slots_.begin(), slots_.end(), slot_meta{});

  std::vector<std::uint8_t> chunk;
  const std::uint64_t slots = total_slots();
  for (std::uint64_t first = 0; first < slots;
       first += sweep_chunk_records) {
    const std::uint64_t count = std::min(sweep_chunk_records, slots - first);
    chunk.resize(count * record_bytes);
    for (std::uint64_t k = 0; k < count; ++k) {
      fill_pad(first + k, 0,
               std::span<std::uint8_t>(chunk.data() + k * record_bytes,
                                       record_bytes));
    }
    io_store_->write_range(first, count, chunk);
  }

  positions_.clear();
  stash_.clear();
  resident_ = 0;
}

cost_split ring_oram::initialize_full(
    std::uint64_t count,
    const std::function<void(block_id, std::span<std::uint8_t>)>& filler,
    std::vector<leaf_id>* leaves_out) {
  expects(count <= positions_.universe(), "more blocks than the universe");
  expects(count <= capacity_blocks(), "tree cannot hold that many blocks");
  cost_split cost;
  sim::trip_scope round_trip(&io_store_->device());

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
  const auto payload_of = [&](block_id id) -> std::span<const std::uint8_t> {
    return {payloads.data() + id * config_.payload_bytes,
            config_.payload_bytes};
  };

  // Bottom-up greedy placement with capacity Z per bucket.
  std::vector<std::vector<block_id>> bucket_ids(bucket_count_);
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
    const std::uint64_t take =
        std::min<std::uint64_t>(config_.real_slots, pending.size());
    for (std::uint64_t k = 0; k < take; ++k) {
      bucket_ids[bucket].push_back(pending[pending.size() - 1 - k]);
    }
    pending.resize(pending.size() - take);
    return pending;
  };
  std::vector<block_id> overflow = build(0, 0);
  for (const block_id id : overflow) {
    stash_.put(id, leaves[id], payload_of(id));
  }

  // Compose every bucket (fresh permutations + pads) into one image and
  // stream it out as sequential sweeps.
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();
  std::vector<std::uint8_t> tree_image(total_slots() * record_bytes);
  for (std::uint64_t bucket = 0; bucket < bucket_count_; ++bucket) {
    compose_bucket(
        bucket, bucket_ids[bucket], payload_of,
        std::span<std::uint8_t>(
            tree_image.data() + bucket * spb * record_bytes,
            static_cast<std::size_t>(spb) * record_bytes));
  }
  const std::uint64_t slots = total_slots();
  for (std::uint64_t first = 0; first < slots;
       first += sweep_chunk_records) {
    const std::uint64_t n = std::min(sweep_chunk_records, slots - first);
    cost.io += io_store_->write_range(
        first, n,
        std::span<const std::uint8_t>(
            tree_image.data() + first * record_bytes, n * record_bytes));
  }
  cost.cpu += cpu_.crypto_time(slots, record_bytes);

  resident_ = count;
  if (leaves_out != nullptr) {
    *leaves_out = leaves;
  }
  return cost;
}

void ring_oram::for_each_resident(
    const std::function<void(block_id, leaf_id,
                             std::span<const std::uint8_t>)>& visit)
    const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  for (std::uint64_t slot = 0; slot < total_slots(); ++slot) {
    const slot_meta& meta = slots_[slot];
    if (meta.id == dummy_block_id) {
      continue;
    }
    const block_id id = codec_.decode(io_store_->peek(slot), payload);
    invariant(id == meta.id, "slot metadata disagrees with the record");
    visit(id, positions_.leaf_of(id), payload);
  }
  for (const auto& [id, entry] : stash_) {
    visit(id, entry.leaf, entry.payload);
  }
}

void ring_oram::check_consistency() const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  std::vector<std::uint8_t> pad(codec_.record_bytes());
  std::vector<std::uint8_t> seen(positions_.universe(), 0);
  std::uint64_t found = 0;
  const std::uint32_t spb = slots_per_bucket();

  for (std::uint64_t bucket = 0; bucket < bucket_count_; ++bucket) {
    const bucket_state& state = buckets_[bucket];
    invariant(state.read_count < config_.spare_slots,
              "bucket consumed all its spare slots without a reshuffle");
    std::uint32_t reals = 0;
    for (std::uint32_t k = 0; k < spb; ++k) {
      const std::uint64_t slot = bucket * spb + k;
      const slot_meta& meta = slots_[slot];
      if (meta.id != dummy_block_id) {
        invariant(!meta.read, "live real slot marked consumed");
        ++reals;
        const block_id id = codec_.decode(io_store_->peek(slot), payload);
        invariant(id == meta.id, "slot metadata disagrees with the record");
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
      } else if (!meta.read) {
        // An unread dummy must hold its deterministic pad byte for
        // byte, or the XOR reconstruction would corrupt real reads.
        fill_pad(slot, state.epoch, pad);
        const std::span<const std::uint8_t> host = io_store_->peek(slot);
        invariant(std::equal(pad.begin(), pad.end(), host.begin()),
                  "unread dummy slot diverged from its pad");
      }
    }
    invariant(reals <= config_.real_slots,
              "bucket holds more reals than Z slots");
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

}  // namespace horam::oram
