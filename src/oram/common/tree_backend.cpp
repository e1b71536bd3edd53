#include "oram/common/tree_backend.h"

#include <optional>
#include <unordered_map>
#include <utility>

#include "oram/path/path_oram.h"
#include "oram/ring/ring_oram.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

std::uint64_t tree_leaf_count(std::uint64_t block_count, std::uint32_t z) {
  std::uint64_t leaves = 1;
  // capacity + Z = 2 * leaves * Z; stop once that reaches 2N.
  while (2 * leaves * z < 2 * block_count) {
    leaves *= 2;
  }
  return leaves;
}

/// Incremental shuffle over either tree: slice units are single stash
/// installs, then single forced evictions. Run back to back the units
/// reproduce the monolithic period exactly; bounded budgets stop
/// between any two units.
template <class Tree>
class tree_shuffle_job final : public horam::shuffle_job {
 public:
  tree_shuffle_job(tree_backend<Tree>& owner,
                   std::vector<evicted_block> evicted,
                   std::uint64_t period_index)
      : owner_(&owner), evicted_(std::move(evicted)), epoch_(owner.epoch_) {
    expects(owner.active_job_ == nullptr,
            "begin_shuffle() while another shuffle job is in flight");
    expects(evicted_.size() == owner.cached_count_,
            "a tree shuffle must receive every cached block");
    trace(owner.trace_, event_kind::shuffle_begin, period_index);
    for (std::size_t i = 0; i < evicted_.size(); ++i) {
      const block_id id = evicted_[i].id;
      expects(id < owner.config_.block_count, "evicted id out of range");
      expects(owner.cached_[id] != 0, "evicted block is not cached");
      expects(staged_.emplace(id, i).second, "block evicted twice");
    }
    // Burst length: a function of the public eviction size only.
    owner.last_drain_ = drain_report{};
    owner.last_drain_.budget =
        owner.tree_->level_count() +
        util::ceil_div(evicted_.size(), owner.drain_z_);
    owner.last_drain_.floor = 2 * owner.drain_z_;
    extra_ = 4 * owner.last_drain_.budget + 64;
    ++owner.epoch_;
    owner.active_job_ = this;
    if (evicted_.empty()) {
      note_settled();
    }
  }

  ~tree_shuffle_job() override { detach(); }
  tree_shuffle_job(const tree_shuffle_job&) = delete;
  tree_shuffle_job& operator=(const tree_shuffle_job&) = delete;

  horam::shuffle_cost step(sim::sim_time device_budget) override {
    expects(!done(), "shuffle_job::step() after done()");
    drain_report& drain = owner_->last_drain_;
    horam::shuffle_cost slice;
    while (!done()) {
      if (next_install_ < evicted_.size()) {
        install_one(slice);
      } else if (drain.accesses < drain.budget || stash_above_floor()) {
        // Past the budget this is the conditional tail; done() bounds
        // it by extra_.
        if (drain.accesses >= drain.budget) {
          --extra_;
        }
        drain_once(slice);
      }
      if (device_budget > 0 && slice.total() >= device_budget) {
        break;
      }
    }
    return slice;
  }

  [[nodiscard]] bool done() const noexcept override {
    const drain_report& drain = owner_->last_drain_;
    return next_install_ >= evicted_.size() &&
           drain.accesses >= drain.budget &&
           (!stash_above_floor() || extra_ == 0);
  }

  [[nodiscard]] bool holds(block_id id) const override {
    return staged_.contains(id);
  }

  [[nodiscard]] std::vector<std::uint8_t>* staged(block_id id) override {
    const auto it = staged_.find(id);
    return it == staged_.end() ? nullptr : &evicted_[it->second].payload;
  }

  void finish(std::vector<evicted_block>& overflow_out) override {
    static_cast<void>(overflow_out);  // the stash shelters; no overflow
    expects(done(), "shuffle_job::finish() before done()");
    expects(!finished_, "shuffle_job::finish() called twice");
    ++owner_->stats_.partitions_shuffled;  // the one tree counts as one
    finished_ = true;
    detach();
  }

  /// The epoch whose leaves this job installs at.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Forgets the owner's in-flight slot (finish, destruction, or the
  /// owner going away first).
  void detach() noexcept {
    if (owner_ != nullptr && owner_->active_job_ == this) {
      owner_->active_job_ = nullptr;
    }
  }

 private:
  [[nodiscard]] bool stash_above_floor() const noexcept {
    return owner_->tree_->stash_ref().size() > owner_->last_drain_.floor;
  }

  /// Folds the next hot block back in at the leaf its load recorded in
  /// the map: F_k(id, epoch), recomputed, no map access.
  void install_one(horam::shuffle_cost& cost) {
    evicted_block& block = evicted_[next_install_++];
    const cost_split install_cost = owner_->tree_->install(
        block.id, block.payload, owner_->prf_(block.id, epoch_));
    cost.memory += install_cost.memory;
    cost.cpu += install_cost.cpu;
    owner_->cached_[block.id] = 0;
    --owner_->cached_count_;
    staged_.erase(block.id);
    if (next_install_ == evicted_.size()) {
      note_settled();
    }
  }

  void drain_once(horam::shuffle_cost& cost) {
    const cost_split evict_cost = owner_->tree_->force_evict();
    cost.io_read += evict_cost.io / 2;
    cost.io_write += evict_cost.io - evict_cost.io / 2;
    cost.memory += evict_cost.memory;
    cost.cpu += evict_cost.cpu;
    ++owner_->last_drain_.accesses;
    note_settled();
  }

  /// Records the first drain index at which the stash is at the floor.
  void note_settled() {
    if (!settled_ && !stash_above_floor()) {
      settled_ = true;
      owner_->last_drain_.settled_at = owner_->last_drain_.accesses;
    }
  }

  friend class tree_backend<Tree>;

  tree_backend<Tree>* owner_;
  std::vector<evicted_block> evicted_;
  std::uint64_t epoch_;
  std::unordered_map<block_id, std::size_t> staged_;
  std::size_t next_install_ = 0;
  std::uint64_t extra_ = 0;
  bool settled_ = false;
  bool finished_ = false;
};

template <class Tree>
tree_backend<Tree>::tree_backend(
    const horam_config& config, std::unique_ptr<Tree> tree,
    std::uint64_t drain_z, std::uint64_t map_key_seed, sim::block_device& device,
    sim::block_device* map_device, const sim::cpu_model& cpu,
    util::random_source& rng, access_trace* trace, const filler_fn* filler)
    : config_(config),
      rng_(rng),
      trace_(trace),
      drain_z_(drain_z),
      tree_(std::move(tree)),
      prf_(config.key_seed, tree_->config().leaf_count) {
  expects(tree_->capacity_blocks() >= config_.block_count,
          "backend tree cannot hold the dataset");

  const filler_fn zero_fill = [](block_id, std::span<std::uint8_t>) {};
  std::vector<leaf_id> leaves;
  tree_->initialize_full(config_.block_count,
                         filler != nullptr ? *filler : zero_fill, &leaves);

  recursive_map_config map_config;
  map_config.universe = config_.block_count;
  map_config.entries_per_block = config_.map_entries_per_block;
  map_config.direct_threshold = config_.map_direct_threshold;
  map_config.bucket_size = config_.bucket_size;
  map_config.seal = config_.seal;
  map_config.key_seed = map_key_seed;
  map_ = std::make_unique<recursive_position_map>(
      map_config, map_device != nullptr ? *map_device : device, cpu, rng_,
      trace_, leaves);

  cached_.assign(config_.block_count, 0);
  payload_scratch_.resize(config_.payload_bytes);
  device.reset_stats();
  if (map_device != nullptr) {
    map_device->reset_stats();
  }
}

template <class Tree>
tree_backend<Tree>::~tree_backend() {
  if (active_job_ != nullptr) {
    active_job_->owner_ = nullptr;
  }
}

template <class Tree>
bool tree_backend<Tree>::in_storage(block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return cached_[id] == 0;
}

template <class Tree>
oram_backend::load_result tree_backend<Tree>::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;

  // One map walk reads the leaf and records the next one (remap on
  // load); the answer is checked against the tree's own bookkeeping.
  std::optional<leaf_id> mapped;
  result.cost += map_->exchange(id, prf_(id, epoch_), mapped);
  invariant(mapped.has_value(), "map lost a storage-resident block");
  invariant(*mapped == tree_->leaf_of(id),
            "recursive map disagrees with the tree's position map");

  result.cost += tree_->extract(id, payload_scratch_);
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  cached_[id] = 1;
  ++cached_count_;
  return result;
}

template <class Tree>
oram_backend::load_result tree_backend<Tree>::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;

  // Cover traffic with the same bus shape as a real load: one map walk
  // of a uniformly random id (its entry written back unchanged) plus
  // one dummy tree access. Nothing is prefetched.
  std::optional<leaf_id> ignored;
  result.cost +=
      map_->lookup(util::uniform_below(rng_, config_.block_count), ignored);
  result.cost += tree_->dummy_access();
  return result;
}

template <class Tree>
std::unique_ptr<horam::shuffle_job> tree_backend<Tree>::begin_shuffle(
    std::vector<evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<tree_shuffle_job<Tree>>(*this, std::move(evicted),
                                                  period_index);
}

template <class Tree>
horam::shuffle_cost tree_backend<Tree>::shuffle_period(
    std::vector<evicted_block> evicted, std::uint64_t period_index,
    std::vector<evicted_block>& overflow_out) {
  std::unique_ptr<horam::shuffle_job> job =
      begin_shuffle(std::move(evicted), period_index);
  horam::shuffle_cost cost;
  while (!job->done()) {
    cost += job->step(0);
  }
  job->finish(overflow_out);
  return cost;
}

template <class Tree>
std::uint64_t tree_backend<Tree>::shared_trusted_bytes() const {
  return map_->trusted_bytes() +
         tree_->stash_ref().size() *
             (config_.payload_bytes + sizeof(stash_entry)) +
         cached_.size();
}

template <class Tree>
void tree_backend<Tree>::check_consistency() const {
  tree_->check_consistency();

  invariant(cached_count_ <= config_.block_count, "cached counter overran");
  std::uint64_t cached_blocks = 0;
  for (block_id id = 0; id < config_.block_count; ++id) {
    const bool cached = cached_[id] != 0;
    invariant(cached != tree_->contains(id),
              "residency bitmap disagrees with the tree");
    cached_blocks += cached ? 1 : 0;
  }
  invariant(cached_blocks == cached_count_,
            "cached counter out of sync with the bitmap");
  invariant(tree_->resident_blocks() ==
                config_.block_count - cached_count_,
            "tree resident count disagrees with the bitmap");

  // A storage-resident block's map entry is its tree leaf. A cached
  // block's is the leaf its next install uses: F_k(id, e) for the epoch
  // e of the job holding it, or of the next job to begin.
  std::uint64_t entries = 0;
  map_->for_each_assigned([&](block_id id, leaf_id leaf) {
    invariant(id < config_.block_count, "map entry outside the universe");
    ++entries;
    if (cached_[id] != 0) {
      const bool staged =
          active_job_ != nullptr && active_job_->holds(id);
      invariant(leaf == prf_(id, staged ? active_job_->epoch() : epoch_),
                "cached block's map entry is not its next leaf");
      return;
    }
    invariant(tree_->contains(id),
              "map names a block the tree does not hold");
    invariant(leaf == tree_->leaf_of(id),
              "recursive map disagrees with the tree's position map");
  });
  invariant(entries == config_.block_count, "map lost an entry");
}

template class tree_backend<path_oram>;
template class tree_backend<ring_oram>;

}  // namespace horam::oram
