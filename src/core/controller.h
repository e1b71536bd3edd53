// H-ORAM controller: the trusted orchestrator tying together the
// in-memory Path ORAM cache, a pluggable oram_backend (the partitioned
// storage layer by default), the ROB table and the secure scheduler
// (Figure 4-1).
//
// Operation (§4.1): during an access period each cycle issues exactly
// one storage load (real miss, or a dummy that may prefetch) in
// parallel with c in-memory path accesses; the cycle lasts
// max(io lane, memory lane) of virtual time. After n/2 loads the
// controller runs the shuffle period: oblivious tree evict, group-and-
// partition shuffle, tree re-initialisation. The shuffle's device time
// is charged according to the configured shuffle_policy (foreground /
// page-cache-style async write-back / fully offloaded — Figure 5-2 —
// or deamortized: shuffle_policy::incremental turns the period into a
// backend shuffle_job whose budget-bounded slices run between access
// rounds, so the stop-the-world latency cliff disappears from the
// request tail).
//
// A cycle's c path accesses — its tree hits plus dummy padding, with a
// dummy in the place of each hit served from trusted memory (shelter,
// staged shuffle blocks) — run as one path_oram::access_group(): one
// read of the union of the c paths, one sealed write-back, each union
// bucket read and written once. The group replays the accesses exactly
// as c single calls would, so only the memory-bucket events, the
// nonces and the (never larger) memory-lane charge differ from serving
// them one by one. Its plaintext working set is trusted memory of at
// most c_max × levels × Z records (c_max = the largest stage c).
#ifndef HORAM_CORE_CONTROLLER_H
#define HORAM_CORE_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "core/rob_table.h"
#include "core/scheduler.h"
#include "core/storage_layer.h"
#include "oram/common/access_trace.h"
#include "oram/common/types.h"
#include "oram/path/path_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "util/rng.h"

namespace horam {

/// One application request.
struct request {
  oram::op_kind op = oram::op_kind::read;
  oram::block_id id = 0;
  /// Submitting user (multi-user front end; 0 for single user).
  std::uint32_t user = 0;
  /// Payload for writes (empty for reads).
  std::vector<std::uint8_t> write_data;
  /// Read-modify-write: a write that also returns the block's pre-write
  /// payload in request_result::read_data. One physical access either
  /// way — ORAM rewrites the block on every access — so the bus shape
  /// is unchanged. The coalescer uses this to serve readers that were
  /// merged ahead of a write in the same round.
  bool fetch_before_write = false;
};

/// Per-request outcome (optional output of run()).
struct request_result {
  sim::sim_time completion_time = 0;
  /// Control-layer knowledge: was the block memory-resident when first
  /// scheduled? (Never observable on the bus.)
  bool hit = false;
  std::vector<std::uint8_t> read_data;
};

/// Aggregate counters of a controller run.
struct controller_stats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cycles = 0;  // == storage loads issued (paper: "I/O accesses")
  std::uint64_t real_loads = 0;
  std::uint64_t dummy_loads = 0;
  std::uint64_t dummy_path_accesses = 0;
  /// Hits served from trusted memory (shelter or a block staged in the
  /// in-flight shuffle job), each covered by a dummy path access.
  std::uint64_t trusted_hits = 0;
  std::uint64_t periods = 0;  // completed shuffle periods
  /// Incremental shuffle slices pumped between access rounds
  /// (shuffle_policy::incremental with a bounded slice budget).
  std::uint64_t shuffle_slices = 0;

  sim::sim_time access_time = 0;   // wall time of access periods
  sim::sim_time shuffle_time = 0;  // device time of shuffle periods
  sim::sim_time total_time = 0;    // wall time incl. charged shuffles
  sim::sim_time io_busy = 0;       // storage-device busy time
  sim::sim_time memory_busy = 0;   // memory-device busy time
  sim::sim_time cpu_busy = 0;      // control-layer busy time
  sim::sim_time io_load_time = 0;  // storage time of loads only
  /// Time spent finishing an in-flight incremental job foreground
  /// because the next period boundary arrived first (the cliff the
  /// slice budget should be sized to avoid).
  sim::sim_time shuffle_stall_time = 0;

  /// Storage-device traffic attributable to shuffle periods and
  /// incremental shuffle slices, measured by snapshotting the device's
  /// io_stats around the shuffle execution points (zero until
  /// attach_device_stats wires a device; the engine does). Subtracting
  /// these from the device totals isolates the *online* traffic of the
  /// access rounds — the split the ring backend's one-slot reads and
  /// XOR fetches improve while its evictions batch into sweeps.
  std::uint64_t shuffle_device_read_ops = 0;
  std::uint64_t shuffle_device_write_ops = 0;
  std::uint64_t shuffle_device_read_bytes = 0;
  std::uint64_t shuffle_device_write_bytes = 0;
  /// Round trips (sim::io_stats::round_trips) the shuffle machinery
  /// consumed; device total minus this is the online round-trip count —
  /// the dependent-exchange metric the hier backend's batched probes
  /// collapse to ≈1 per request.
  std::uint64_t shuffle_device_round_trips = 0;

  /// Streaming per-request service-latency histogram (ROB entry to
  /// retirement, shuffle charges included), the controller-level half
  /// of the tail-latency accounting. Resource-level: under the sharded
  /// engine it includes the router's padding requests — the tenant
  /// layer's histograms are the application-level view.
  sim::latency_histogram request_latency;

  /// Average storage-load service time (the paper's "I/O Latency").
  [[nodiscard]] double average_io_latency_us() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(io_load_time) / 1e3 /
                             static_cast<double>(cycles);
  }
  /// Realised average group size (the paper's ĉ, Eq 5-1).
  [[nodiscard]] double average_c() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(requests) /
                             static_cast<double>(cycles);
  }

  /// Element-wise accumulation, for multi-instance runs (the sharded
  /// engine, multi-machine benches). Every field sums — including the
  /// wall-clock fields, which therefore read as *lane* time; a caller
  /// aggregating parallel lanes overrides total_time with the wall
  /// window it measured (core/engine.cpp does).
  controller_stats& operator+=(const controller_stats& other) noexcept {
    requests += other.requests;
    hits += other.hits;
    misses += other.misses;
    cycles += other.cycles;
    real_loads += other.real_loads;
    dummy_loads += other.dummy_loads;
    dummy_path_accesses += other.dummy_path_accesses;
    trusted_hits += other.trusted_hits;
    periods += other.periods;
    shuffle_slices += other.shuffle_slices;
    access_time += other.access_time;
    shuffle_time += other.shuffle_time;
    total_time += other.total_time;
    io_busy += other.io_busy;
    memory_busy += other.memory_busy;
    cpu_busy += other.cpu_busy;
    io_load_time += other.io_load_time;
    shuffle_stall_time += other.shuffle_stall_time;
    shuffle_device_read_ops += other.shuffle_device_read_ops;
    shuffle_device_write_ops += other.shuffle_device_write_ops;
    shuffle_device_read_bytes += other.shuffle_device_read_bytes;
    shuffle_device_write_bytes += other.shuffle_device_write_bytes;
    shuffle_device_round_trips += other.shuffle_device_round_trips;
    request_latency += other.request_latency;
    return *this;
  }
};

/// Sums a set of per-instance counters (see operator+= for the
/// wall-clock caveat on parallel lanes).
[[nodiscard]] inline controller_stats aggregate(
    std::span<const controller_stats> parts) noexcept {
  controller_stats total;
  for (const controller_stats& part : parts) {
    total += part;
  }
  return total;
}

class controller {
 public:
  /// Primary constructor: the caller chooses the oblivious store. The
  /// backend must protect `config.block_count` blocks of
  /// `config.payload_bytes` payload; `memory_device` backs the in-memory
  /// cache tree.
  controller(const horam_config& config,
             std::unique_ptr<oram_backend> backend,
             sim::block_device& memory_device, const sim::cpu_model& cpu,
             util::random_source& rng, oram::access_trace* trace = nullptr);

  /// Convenience constructor: fronts the default partitioned
  /// storage_layer on `storage_device`. Pass a filler to give blocks
  /// initial contents (null = zero-filled).
  controller(const horam_config& config, sim::block_device& storage_device,
             sim::block_device& memory_device, const sim::cpu_model& cpu,
             util::random_source& rng, oram::access_trace* trace = nullptr,
             const std::function<void(oram::block_id,
                                      std::span<std::uint8_t>)>* filler =
                 nullptr);

  /// Processes a batch of requests to completion. Results (per-request
  /// completion time, read payloads) are captured when `results` is
  /// non-null. May be called repeatedly; virtual time accumulates.
  void run(std::span<const request> requests,
           std::vector<request_result>* results = nullptr);

  // --- Incremental session API: stream requests in, drain when ready. ---

  /// Enqueues one request (validated immediately) without running it.
  void submit(request req);
  /// Enqueues a batch without running it.
  void submit(std::span<const request> requests);
  /// Requests submitted but not yet drained.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  /// Services every pending request to completion; per-request results
  /// (in submission order) are captured when `results` is non-null.
  void drain(std::vector<request_result>* results = nullptr);

  /// Convenience single-request API (examples / interactive use); pads
  /// the group with dummies like any other cycle.
  std::vector<std::uint8_t> read(oram::block_id id);
  void write(oram::block_id id, std::span<const std::uint8_t> data);

  [[nodiscard]] const controller_stats& stats() const noexcept {
    return stats_;
  }
  /// Zeroes the counters and restarts the total_time epoch at the
  /// current virtual time, so benches can exclude warm-up traffic.
  void reset_stats() noexcept;
  /// Wires the storage device's counters so shuffle-period device
  /// traffic can be told apart from online access traffic (the
  /// shuffle_device_* stats). `stats` must outlive the controller;
  /// null (the default) leaves those counters at zero. The convenience
  /// ctor and the engine attach automatically.
  void attach_device_stats(const sim::io_stats* stats) noexcept {
    device_stats_ = stats;
  }
  /// Requests an incremental pump should submit per scheduling round
  /// (see scheduler::round_budget).
  [[nodiscard]] std::uint64_t round_budget() const noexcept;
  /// True while an incremental shuffle job is riding between rounds
  /// (shuffle_policy::incremental with a bounded slice budget).
  [[nodiscard]] bool shuffle_in_flight() const noexcept {
    return shuffle_job_ != nullptr;
  }
  [[nodiscard]] sim::sim_time now() const noexcept { return clock_.now(); }
  [[nodiscard]] const horam_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const oram::path_oram& memory_tree() const noexcept {
    return *tree_;
  }
  /// The oblivious store behind the cache layer.
  [[nodiscard]] const oram_backend& backend() const noexcept {
    return *storage_;
  }
  /// Typed view of the default partitioned backend; only valid when the
  /// controller fronts a storage_layer (geometry-aware tests, audits).
  [[nodiscard]] const storage_layer& storage() const;
  /// Trusted-memory bytes the control layer occupies (reporting).
  [[nodiscard]] std::uint64_t control_memory_bytes() const;

 private:
  [[nodiscard]] bool resident(oram::block_id id) const;
  void run_shuffle_period();
  /// Runs one slice of the in-flight incremental shuffle job (no-op
  /// without one); charges the slice's device time and, when the job
  /// completes, shelters its overflow.
  void pump_shuffle_slice();
  /// Accumulates the storage-device op/byte growth since `before` into
  /// the shuffle_device_* counters (no-op without an attached device).
  void charge_shuffle_device_delta(const sim::io_stats& before) noexcept;
  /// Adds one hit request to the cycle's group: a tree access, or a
  /// dummy in its place when trusted memory (shelter, staged block)
  /// serves it right here. Returns the trusted serve's cost.
  oram::cost_split plan_hit(const request& req, request_result* result);

  horam_config config_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  oram::access_trace* trace_;

  sim::sim_clock clock_;
  std::unique_ptr<oram::path_oram> tree_;
  std::unique_ptr<oram_backend> storage_;
  scheduler scheduler_;
  rob_table rob_;

  /// Requests submitted but not yet drained (session API).
  std::vector<request> pending_;

  /// The cycle's cache-tree accesses (access_group), reused.
  std::vector<oram::path_op> group_;

  /// Control-layer shelter for shuffle-overflow blocks; resident from
  /// the scheduler's point of view (served with dummy path accesses).
  std::unordered_map<oram::block_id, std::vector<std::uint8_t>> shelter_;

  /// In-flight incremental shuffle job (shuffle_policy::incremental
  /// with a bounded budget); its staged blocks are resident from the
  /// scheduler's point of view, like the shelter.
  std::unique_ptr<shuffle_job> shuffle_job_;

  /// Storage-device counters for the shuffle/online traffic split
  /// (attach_device_stats); null = split not measured.
  const sim::io_stats* device_stats_ = nullptr;

  std::uint64_t loads_this_period_ = 0;
  std::uint64_t period_index_ = 0;
  /// Outstanding async write-back debt (shuffle_policy::async_writeback).
  sim::sim_time flush_debt_ = 0;
  /// Virtual-time origin of the current stats window (reset_stats).
  sim::sim_time stats_epoch_ = 0;

  controller_stats stats_;
};

}  // namespace horam

#endif  // HORAM_CORE_CONTROLLER_H
