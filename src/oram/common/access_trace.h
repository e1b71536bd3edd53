// The adversary's view.
//
// Every externally observable action — bus-visible memory bucket
// accesses, storage slot reads, sequential shuffle sweeps, scheduling
// cycle boundaries — is reported here by the ORAM layers. The pattern
// auditor (src/analysis/pattern_audit.h) replays a trace and checks the
// obliviousness invariants listed at the top of that header; tests fail
// if any layer leaks. Tracing is optional (pass nullptr) and adds no cost when off.
#ifndef HORAM_ORAM_COMMON_ACCESS_TRACE_H
#define HORAM_ORAM_COMMON_ACCESS_TRACE_H

#include <cstdint>
#include <vector>

namespace horam::oram {

/// Kinds of observable events. `a` and `b` give event-specific detail.
enum class event_kind : std::uint8_t {
  /// Storage slot read (a = global slot index).
  storage_read_slot,
  /// Storage slot written (a = global slot index).
  storage_write_slot,
  /// Sequential storage read sweep (a = first slot, b = count).
  storage_read_sweep,
  /// Sequential storage write sweep (a = first slot, b = count).
  storage_write_sweep,
  /// In-memory tree bucket read (a = bucket index).
  memory_bucket_read,
  /// In-memory tree bucket written (a = bucket index).
  memory_bucket_write,
  /// In-memory path access (a = leaf id, b = the tree's leaf count —
  /// distinguishes co-traced trees: cache tree, backend tree, map
  /// chain); buckets follow as events.
  memory_path_access,
  /// Scheduler cycle boundary (a = cycle index, b = group size c).
  cycle_begin,
  /// Access period boundary (a = period index).
  period_begin,
  /// Shuffle stage boundary (a = period index).
  shuffle_begin,
  /// One partition shuffled (a = partition index).
  shuffle_partition,
  /// One incremental shuffle slice pumped between access rounds
  /// (a = period index of the in-flight job, b = slice ordinal since
  /// the stats epoch). Only emitted by shuffle_policy::incremental
  /// with a bounded budget.
  shuffle_slice,
};

/// One observable event.
struct trace_event {
  event_kind kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Append-only event log. Owned by the test/bench harness; ORAM layers
/// receive a pointer and may ignore it when null.
class access_trace {
 public:
  void record(event_kind kind, std::uint64_t a = 0, std::uint64_t b = 0) {
    events_.push_back(trace_event{kind, a, b});
  }

  [[nodiscard]] const std::vector<trace_event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<trace_event> events_;
};

/// Convenience for optional tracing.
inline void trace(access_trace* sink, event_kind kind, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
  if (sink != nullptr) {
    sink->record(kind, a, b);
  }
}

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_ACCESS_TRACE_H
