// Multi-tenant scheduling layer (§5.3.2).
//
// H-ORAM inherits the square-root family's support for group accesses:
// requests from several users can share one scheduling group, so adding
// users raises throughput instead of serialising whole ORAM accesses.
//
// The tenant_scheduler is the core of that support: per-tenant admission
// queues (with access-control grants and an optional depth limit) are
// interleaved into the controller's request stream round by round, one
// pluggable fairness_policy pick at a time. It is deliberately
// incremental — callers pump step() and interleave new submissions with
// service, which is what the facade-level horam::service builds its
// asynchronous session/ticket API on.
#ifndef HORAM_CORE_MULTI_USER_H
#define HORAM_CORE_MULTI_USER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "core/engine.h"
#include "core/fairness.h"

namespace horam {

/// Per-tenant access-control entry: the half-open block range a tenant
/// may touch (§5.3.2: "some access control protection is required and
/// can be added to our scheduler").
struct user_grant {
  oram::block_id first = 0;
  oram::block_id last = 0;  // exclusive

  [[nodiscard]] bool allows(oram::block_id id) const noexcept {
    return id >= first && id < last;
  }
};

/// Thrown when a request violates its tenant's grant.
class access_denied : public std::runtime_error {
 public:
  access_denied(std::uint32_t user, oram::block_id id)
      : std::runtime_error("user " + std::to_string(user) +
                           " may not access block " + std::to_string(id)),
        user(user),
        id(id) {}

  std::uint32_t user;
  oram::block_id id;
};

/// Thrown when a tenant's admission queue is at its depth limit.
class queue_overflow : public std::runtime_error {
 public:
  queue_overflow(std::uint32_t tenant, std::size_t depth)
      : std::runtime_error("tenant " + std::to_string(tenant) +
                           " admission queue full (depth " +
                           std::to_string(depth) + ")"),
        tenant(tenant),
        depth(depth) {}

  std::uint32_t tenant;
  std::size_t depth;
};

/// Per-tenant counters since construction or the last reset_stats().
struct tenant_stats {
  std::uint32_t tenant = 0;
  double weight = 1.0;
  /// Requests admitted (including those still queued).
  std::uint64_t submitted = 0;
  /// Requests serviced to completion.
  std::uint64_t completed = 0;
  /// Current admission-queue depth (snapshot, not since reset).
  std::size_t queued = 0;
  /// Simulated latency (completion - submission) over completed
  /// requests; queueing time counts.
  sim::sim_time total_latency = 0;
  sim::sim_time max_latency = 0;
  /// Completed requests per virtual second since the stats epoch.
  double throughput = 0.0;
  /// Streaming latency distribution of the same completions
  /// (p50/p95/p99/max) — the application-level tail the deamortized
  /// shuffle pipeline is measured by.
  sim::latency_histogram latency;

  [[nodiscard]] sim::sim_time mean_latency() const noexcept {
    return completed == 0
               ? 0
               : total_latency / static_cast<sim::sim_time>(completed);
  }
};

/// Incremental cross-tenant scheduler over one sharded engine.
///
/// Admission (enqueue) validates the block id and the tenant's grant
/// immediately — a rejected request leaves no observable trace — and
/// enforces the optional per-tenant queue-depth limit. step() serves one
/// scheduling round: it pops up to engine.round_budget() requests, one
/// fairness_policy pick at a time, hands them to the engine's batch
/// router (which buckets them across shards and pads each shard's round
/// to the public cap), and reports each completion through the callback
/// with its simulated queueing + service latency. With one shard every
/// popped request completes within the same step — the historical
/// single-controller behavior; with several, requests may ride in the
/// engine for a few rounds and complete in a later step.
class tenant_scheduler {
 public:
  /// Completion delivery: tenant, the sequence number enqueue()
  /// returned, the engine's result (completion_time on the global
  /// clock), and the simulated latency.
  using completion = std::function<void(
      std::uint32_t tenant, std::uint64_t seq, request_result&& result,
      sim::sim_time latency)>;

  /// `max_queue_depth` bounds each tenant's admission queue
  /// (0 = unlimited).
  tenant_scheduler(engine& eng, std::unique_ptr<fairness_policy> policy,
                   std::size_t max_queue_depth = 0);

  /// Registers a tenant with relative share weight `weight` (> 0);
  /// returns its id (dense, starting at 0).
  std::uint32_t add_tenant(double weight = 1.0);

  /// Restricts `tenant` to `grant`. Tenants without a grant may touch
  /// everything (single-tenant compatibility).
  void grant(std::uint32_t tenant, user_grant grant);

  /// Admits one request for `tenant`; returns its sequence number.
  /// Throws access_denied / queue_overflow / contract_error before the
  /// request is queued, so rejection is trace-free.
  std::uint64_t enqueue(std::uint32_t tenant, request req);

  /// Serves one scheduling round; returns false (doing nothing) when
  /// every queue is empty.
  bool step(const completion& on_complete = {});

  /// Pumps step() until every queue is drained.
  void run_until_idle(const completion& on_complete = {});

  [[nodiscard]] bool idle() const noexcept {
    return queued_total_ == 0 && inflight_.empty();
  }
  /// Requests admitted but not yet serviced, across all tenants
  /// (admission queues plus requests riding in the engine).
  [[nodiscard]] std::size_t queued() const noexcept {
    return queued_total_ + inflight_.size();
  }
  [[nodiscard]] std::size_t queued(std::uint32_t tenant) const;
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return lanes_.size();
  }

  /// Snapshot of one tenant's counters (throughput uses virtual time
  /// elapsed since the stats epoch).
  [[nodiscard]] tenant_stats stats(std::uint32_t tenant) const;

  /// Zeroes every tenant's counters and restarts the throughput epoch
  /// (policy rotation state is preserved).
  void reset_stats();

  [[nodiscard]] const fairness_policy& policy() const noexcept {
    return *policy_;
  }

 private:
  struct queued_request {
    std::uint64_t seq = 0;
    sim::sim_time submitted = 0;
    request req;
  };
  struct lane {
    double weight = 1.0;
    std::deque<queued_request> queue;
    /// Requests handed to the engine but not yet completed.
    std::size_t inflight = 0;
    /// Lifetime service count the fairness policy sees (never reset, so
    /// a stats reset cannot cause a proportional-share catch-up burst).
    std::uint64_t serviced = 0;
    tenant_stats stats;
  };
  /// What we remember about a request riding in the engine, keyed by
  /// the engine's submit token.
  struct inflight_meta {
    std::uint32_t tenant = 0;
    std::uint64_t seq = 0;
    sim::sim_time submitted = 0;
  };

  engine& engine_;
  std::unique_ptr<fairness_policy> policy_;
  std::size_t max_queue_depth_;
  std::vector<lane> lanes_;
  std::unordered_map<std::uint32_t, user_grant> grants_;
  std::unordered_map<std::uint64_t, inflight_meta> inflight_;
  std::size_t queued_total_ = 0;
  std::uint64_t next_seq_ = 1;
  /// WFQ virtual clock: the highest pass ((serviced + 1) / weight) ever
  /// dispatched. Lanes that go backlogged restart from here, so neither
  /// veterans nor late joiners can monopolize the weighted-share policy
  /// (persists across idle periods; never reset).
  double virtual_pass_ = 0.0;
  /// Virtual-time origin for throughput reporting.
  sim::sim_time stats_epoch_ = 0;
};

}  // namespace horam

#endif  // HORAM_CORE_MULTI_USER_H
