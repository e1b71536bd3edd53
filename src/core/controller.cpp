#include "core/controller.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/math.h"

namespace horam {

namespace {

/// In-memory tree sizing: the largest power-of-two leaf count whose
/// tree (Z blocks per bucket) fits in `memory_blocks` blocks.
std::uint64_t tree_leaf_count(std::uint64_t memory_blocks,
                              std::uint32_t bucket_size) {
  const std::uint64_t target = std::max<std::uint64_t>(
      1, memory_blocks / (2 * bucket_size));
  return util::is_pow2(target) ? target
                               : util::next_pow2(target) / 2;
}

}  // namespace

controller::controller(const horam_config& config,
                       std::unique_ptr<oram_backend> backend,
                       sim::block_device& memory_device,
                       const sim::cpu_model& cpu, util::random_source& rng,
                       oram::access_trace* trace)
    : config_(config),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      scheduler_(config.stages, config.period_loads(),
                 config.prefetch_factor) {
  config_.validate();
  expects(backend != nullptr, "controller needs an oram_backend");

  oram::path_oram_config tree_config;
  tree_config.leaf_count =
      tree_leaf_count(config_.memory_blocks, config_.bucket_size);
  tree_config.bucket_size = config_.bucket_size;
  tree_config.payload_bytes = config_.payload_bytes;
  tree_config.logical_block_bytes = config_.logical_block_bytes;
  tree_config.id_universe = config_.block_count;
  tree_config.seal = config_.seal;
  tree_config.key_seed = config_.key_seed ^ 0x7472;
  tree_ = std::make_unique<oram::path_oram>(tree_config, memory_device,
                                            /*io_device=*/nullptr, cpu_,
                                            rng_, trace_);
  memory_device.reset_stats();

  storage_ = std::move(backend);
}

controller::controller(
    const horam_config& config, sim::block_device& storage_device,
    sim::block_device& memory_device, const sim::cpu_model& cpu,
    util::random_source& rng, oram::access_trace* trace,
    const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
        filler)
    : controller(config,
                 std::make_unique<storage_layer>(config, storage_device,
                                                 cpu, rng, trace, filler),
                 memory_device, cpu, rng, trace) {
  attach_device_stats(&storage_device.stats());
}

const storage_layer& controller::storage() const {
  const auto* partitioned = dynamic_cast<const storage_layer*>(
      storage_.get());
  expects(partitioned != nullptr,
          "storage() requires the partitioned backend; use backend()");
  return *partitioned;
}

bool controller::resident(oram::block_id id) const {
  return tree_->contains(id) || shelter_.contains(id) ||
         (shuffle_job_ != nullptr && shuffle_job_->holds(id));
}

oram::cost_split controller::plan_hit(const request& req,
                                      request_result* result) {
  const bool wants_payload =
      result != nullptr &&
      (req.op == oram::op_kind::read || req.fetch_before_write);

  // A block staged in the in-flight shuffle job, or sheltered after a
  // shuffle overflow, is served from trusted memory; a dummy path
  // access takes its place in the group, so the bus shape is unchanged.
  // Writes go through into the trusted copy, so the shuffle places the
  // fresh data.
  std::vector<std::uint8_t>* trusted =
      shuffle_job_ != nullptr ? shuffle_job_->staged(req.id) : nullptr;
  if (trusted == nullptr) {
    const auto shelter_it = shelter_.find(req.id);
    if (shelter_it != shelter_.end()) {
      trusted = &shelter_it->second;
    }
  }
  if (trusted != nullptr) {
    group_.emplace_back();
    ++stats_.trusted_hits;
    if (wants_payload) {
      result->read_data = *trusted;
      result->read_data.resize(config_.payload_bytes, 0);
    }
    if (req.op == oram::op_kind::write) {
      trusted->assign(req.write_data.begin(), req.write_data.end());
      trusted->resize(config_.payload_bytes, 0);
    }
    oram::cost_split cost;
    cost.cpu += cpu_.word_ops_time(8);
    return cost;
  }

  // A tree hit. A fetch-before-write is one write access that also
  // hands back the old payload — same bus shape and RNG draws as a
  // plain write.
  oram::path_op& op = group_.emplace_back();
  op.id = req.id;
  op.op = req.op;
  if (req.op == oram::op_kind::write) {
    op.write_data = req.write_data;
  }
  if (wants_payload) {
    result->read_data.resize(config_.payload_bytes);
    op.read_out = result->read_data;
  }
  return {};
}

void controller::run(std::span<const request> requests,
                     std::vector<request_result>* results) {
  invariant(rob_.empty(), "previous batch left requests in the ROB");
  if (results != nullptr) {
    results->assign(requests.size(), request_result{});
  }
  for (const request& req : requests) {
    expects(req.id < config_.block_count, "request id out of range");
  }

  std::vector<std::uint8_t> was_scheduled_miss(requests.size(), 0);
  /// ROB-entry timestamps: request_latency measures entry → retirement.
  std::vector<sim::sim_time> enqueued_at(requests.size(), 0);
  std::uint64_t next_to_enqueue = 0;
  std::uint64_t serviced = 0;

  const auto id_of = [&](std::uint64_t request_index) {
    return requests[request_index].id;
  };
  const auto is_resident = [&](oram::block_id id) { return resident(id); };

  while (serviced < requests.size()) {
    // Keep the ROB ahead of the prefetch window.
    const std::uint64_t want = scheduler_.round_budget(loads_this_period_);
    while (rob_.size() < want && next_to_enqueue < requests.size()) {
      enqueued_at[next_to_enqueue] = clock_.now();
      rob_.push(next_to_enqueue++);
    }

    const cycle_plan plan =
        scheduler_.plan(rob_, loads_this_period_, id_of, is_resident);
    trace(trace_, oram::event_kind::cycle_begin, stats_.cycles, plan.c);

    // --- I/O lane: exactly one storage load per cycle. ---
    oram_backend::load_result load;
    if (plan.miss_position.has_value()) {
      rob_table::entry& miss_entry = rob_.at(*plan.miss_position);
      miss_entry.loading = true;
      was_scheduled_miss[miss_entry.request_index] = 1;
      load = storage_->load_block(requests[miss_entry.request_index].id);
      ++stats_.real_loads;
    } else {
      load = storage_->dummy_load();
      ++stats_.dummy_loads;
    }

    // --- Memory lane: c path accesses (real hits + dummy padding) ---
    // as one group: one union read, one sealed write-back.
    oram::cost_split memory_cost;
    group_.clear();
    for (const std::size_t position : plan.hit_positions) {
      const std::uint64_t request_index = rob_.at(position).request_index;
      request_result* result =
          results != nullptr ? &(*results)[request_index] : nullptr;
      memory_cost += plan_hit(requests[request_index], result);
    }
    group_.resize(group_.size() + plan.dummy_hits);
    stats_.dummy_path_accesses += plan.dummy_hits;
    memory_cost += tree_->access_group(group_);

    // The loaded block lands in the tree stash at cycle end.
    oram::cost_split install_cost;
    if (load.id != oram::dummy_block_id) {
      install_cost = tree_->install(load.id, load.payload);
    }

    // Lanes overlap (§4.1: "the I/O loads and in-memory reads are
    // conducted simultaneously"); the cycle lasts the slower lane. A
    // load's memory time (e.g. the path backend's recursive-map walk)
    // is serial with its storage access, so it extends the I/O lane.
    const sim::sim_time io_lane =
        load.cost.io + load.cost.memory + load.cost.cpu + install_cost.cpu;
    const sim::sim_time memory_lane =
        memory_cost.memory + memory_cost.cpu;
    const sim::sim_time cycle_time = std::max(io_lane, memory_lane);
    clock_.advance(cycle_time);

    // Async write-back debt drains with otherwise-idle device time.
    if (flush_debt_ > 0) {
      flush_debt_ = std::max<sim::sim_time>(
          0, flush_debt_ - (cycle_time - load.cost.io));
    }

    ++stats_.cycles;
    stats_.access_time += cycle_time;
    stats_.io_busy += load.cost.io;
    stats_.io_load_time += load.cost.io;
    stats_.memory_busy += memory_cost.memory + load.cost.memory;
    stats_.cpu_busy += load.cost.cpu + memory_cost.cpu + install_cost.cpu;

    // Retire serviced requests (descending positions keep indices valid).
    for (auto it = plan.hit_positions.rbegin();
         it != plan.hit_positions.rend(); ++it) {
      const std::uint64_t request_index = rob_.at(*it).request_index;
      if (results != nullptr) {
        (*results)[request_index].completion_time = clock_.now();
        (*results)[request_index].hit =
            was_scheduled_miss[request_index] == 0;
      }
      if (was_scheduled_miss[request_index] == 0) {
        ++stats_.hits;
      } else {
        ++stats_.misses;
      }
      stats_.request_latency.record(clock_.now() -
                                    enqueued_at[request_index]);
      rob_.remove(*it);
      ++serviced;
      ++stats_.requests;
    }
    rob_.clear_loading_flags();

    // Period bookkeeping: every cycle consumes one of the n/2 loads.
    if (++loads_this_period_ >= config_.period_loads()) {
      run_shuffle_period();
    }

    // Deamortization point: one budget-bounded slice of any in-flight
    // incremental shuffle job runs between access rounds, so its
    // device time lands in slice-sized pieces instead of one cliff.
    pump_shuffle_slice();
  }
  stats_.total_time = clock_.now() - stats_epoch_;
}

void controller::reset_stats() noexcept {
  stats_ = controller_stats{};
  stats_epoch_ = clock_.now();
}

std::uint64_t controller::round_budget() const noexcept {
  return scheduler_.round_budget(loads_this_period_);
}

void controller::pump_shuffle_slice() {
  if (shuffle_job_ == nullptr) {
    return;
  }
  // The job was begun by the period that just ended (period_index_ was
  // advanced at creation).
  trace(trace_, oram::event_kind::shuffle_slice, period_index_ - 1,
        stats_.shuffle_slices);
  const sim::io_stats device_before =
      device_stats_ != nullptr ? *device_stats_ : sim::io_stats{};
  const shuffle_cost sc = shuffle_job_->step(config_.shuffle_slice_budget);
  clock_.advance(sc.total());
  ++stats_.shuffle_slices;
  stats_.shuffle_time += sc.total();
  stats_.io_busy += sc.io_read + sc.io_write;
  stats_.memory_busy += sc.memory;
  stats_.cpu_busy += sc.cpu;
  if (shuffle_job_->done()) {
    std::vector<oram::evicted_block> overflow;
    shuffle_job_->finish(overflow);
    shuffle_job_.reset();
    for (auto& block : overflow) {
      shelter_.emplace(block.id, std::move(block.payload));
    }
  }
  charge_shuffle_device_delta(device_before);
}

void controller::charge_shuffle_device_delta(
    const sim::io_stats& before) noexcept {
  if (device_stats_ == nullptr) {
    return;
  }
  stats_.shuffle_device_read_ops +=
      device_stats_->read_ops - before.read_ops;
  stats_.shuffle_device_write_ops +=
      device_stats_->write_ops - before.write_ops;
  stats_.shuffle_device_read_bytes +=
      device_stats_->bytes_read - before.bytes_read;
  stats_.shuffle_device_write_bytes +=
      device_stats_->bytes_written - before.bytes_written;
  stats_.shuffle_device_round_trips +=
      device_stats_->round_trips - before.round_trips;
}

void controller::run_shuffle_period() {
  // An incremental job still in flight blocks the next period: drain
  // it foreground now — the latency cliff a well-sized slice budget
  // avoids (budget * period_loads should cover a whole shuffle).
  while (shuffle_job_ != nullptr) {
    const sim::sim_time stall_begin = clock_.now();
    pump_shuffle_slice();
    stats_.shuffle_stall_time += clock_.now() - stall_begin;
  }

  trace(trace_, oram::event_kind::period_begin, period_index_);

  // 1) Oblivious tree evict (§4.3.1).
  std::vector<oram::evicted_block> evicted;
  const oram::cost_split evict_cost = tree_->evict_all(evicted);

  // Shelter blocks re-enter the shuffle as hot data too.
  for (auto& [id, payload] : shelter_) {
    evicted.push_back(oram::evicted_block{id, std::move(payload)});
  }
  shelter_.clear();

  // 2) Group-and-partition shuffle (§4.3.2) — monolithic, or through
  // the backend's incremental job API under shuffle_policy::
  // incremental. A bounded budget defers the job to the slice pump; an
  // unbounded one drives it to completion right here, reproducing the
  // foreground machine bit for bit through the job entry point.
  const bool deferred = config_.shuffle == shuffle_policy::incremental &&
                        config_.shuffle_slice_budget > 0;
  std::vector<oram::evicted_block> overflow;
  shuffle_cost sc;
  const sim::io_stats device_before =
      device_stats_ != nullptr ? *device_stats_ : sim::io_stats{};
  if (config_.shuffle == shuffle_policy::incremental) {
    std::unique_ptr<shuffle_job> job =
        storage_->begin_shuffle(std::move(evicted), period_index_);
    if (deferred) {
      shuffle_job_ = std::move(job);
    } else {
      while (!job->done()) {
        sc += job->step(0);
      }
      job->finish(overflow);
    }
  } else {
    sc = storage_->shuffle_period(std::move(evicted), period_index_,
                                  overflow);
  }
  charge_shuffle_device_delta(device_before);
  for (auto& block : overflow) {
    shelter_.emplace(block.id, std::move(block.payload));
  }

  // 3) Initialise a new tree (§4.1.3 step 3).
  const oram::cost_split reset_cost = tree_->reset();

  // Charge wall time according to the shuffle policy.
  const sim::sim_time local_work = evict_cost.memory + evict_cost.cpu +
                                   reset_cost.memory + reset_cost.cpu;
  sim::sim_time charged = 0;
  switch (config_.shuffle) {
    case shuffle_policy::foreground:
      charged = flush_debt_ + local_work + sc.total();
      flush_debt_ = 0;
      break;
    case shuffle_policy::async_writeback:
      // Reads and trusted-memory work are foreground; writes are
      // absorbed by the write-back cache and drain during the next
      // access period (leftover debt stalls the next shuffle).
      charged = flush_debt_ + local_work + sc.io_read + sc.memory + sc.cpu;
      flush_debt_ = sc.io_write;
      break;
    case shuffle_policy::offloaded:
      // Figure 5-2: the storage-side shuffle runs off the critical
      // path; only the local tree evict + rebuild is paid.
      charged = local_work;
      break;
    case shuffle_policy::incremental:
      // Local tree work lands at the boundary; the backend's device
      // time lands slice by slice between rounds (pump_shuffle_slice)
      // — or, with an unbounded budget, entirely in sc right here.
      charged = flush_debt_ + local_work + sc.total();
      flush_debt_ = 0;
      break;
  }
  clock_.advance(charged);

  stats_.shuffle_time += local_work + sc.total();
  stats_.io_busy += sc.io_read + sc.io_write;
  stats_.memory_busy += evict_cost.memory + reset_cost.memory + sc.memory;
  stats_.cpu_busy += evict_cost.cpu + reset_cost.cpu + sc.cpu;
  ++stats_.periods;
  loads_this_period_ = 0;
  ++period_index_;
}

void controller::submit(request req) {
  expects(req.id < config_.block_count, "request id out of range");
  pending_.push_back(std::move(req));
}

void controller::submit(std::span<const request> requests) {
  // Validate the whole batch before appending so a bad id cannot leave
  // a partial prefix in the session queue.
  for (const request& req : requests) {
    expects(req.id < config_.block_count, "request id out of range");
  }
  pending_.insert(pending_.end(), requests.begin(), requests.end());
}

void controller::drain(std::vector<request_result>* results) {
  std::vector<request> batch;
  batch.swap(pending_);
  run(batch, results);
}

std::vector<std::uint8_t> controller::read(oram::block_id id) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::read;
  batch[0].id = id;
  std::vector<request_result> results;
  run(batch, &results);
  return std::move(results[0].read_data);
}

void controller::write(oram::block_id id,
                       std::span<const std::uint8_t> data) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::write;
  batch[0].id = id;
  batch[0].write_data.assign(data.begin(), data.end());
  run(batch, nullptr);
}

std::uint64_t controller::control_memory_bytes() const {
  // Position map + backend bookkeeping + ROB + stash payloads (rough,
  // for the Figure 4-1 style report).
  const std::uint64_t position_map = config_.block_count * 8;
  const std::uint64_t stash_bytes =
      tree_->stash_ref().size() * (config_.payload_bytes + 16);
  return position_map + storage_->control_memory_bytes() + stash_bytes;
}

}  // namespace horam
