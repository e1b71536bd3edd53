#include "analysis/pattern_audit.h"

#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::analysis {

double chi_square_uniform(const std::vector<std::uint64_t>& counts) {
  expects(!counts.empty(), "empty histogram");
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double statistic = 0.0;
  for (const std::uint64_t count : counts) {
    const double delta = static_cast<double>(count) - expected;
    statistic += delta * delta / expected;
  }
  return statistic;
}

double chi_square_threshold(std::uint64_t dof) {
  expects(dof > 0, "threshold needs at least one degree of freedom");
  const double k = static_cast<double>(dof);
  return k + 6.0 * std::sqrt(2.0 * k);
}

audit_report audit_trace(const oram::access_trace& trace,
                         const audit_config& config) {
  expects(config.partition_count > 0 && config.slots_per_partition > 0,
          "auditor needs the storage geometry");
  audit_report report;

  const std::uint64_t total_slots =
      config.partition_count * config.slots_per_partition;
  std::vector<bool> armed(total_slots, true);
  std::vector<std::uint64_t> leaf_counts(
      std::max<std::uint64_t>(1, config.leaf_count), 0);

  // Per-cycle accumulation.
  bool in_cycle = false;
  std::uint64_t cycle_c = 0;
  std::uint64_t cycle_paths = 0;
  std::vector<std::uint64_t> cycle_read_partitions;
  std::uint64_t cycle_index = 0;

  std::optional<std::uint64_t> pending_partition_check;

  // The current run of announced paths (memory_path_access events of
  // one tree, b = its leaf count) and the bucket events that follow it.
  std::vector<std::uint64_t> run_leaves;
  std::uint64_t run_leaf_count = 0;
  std::map<std::uint64_t, std::uint64_t> run_reads;
  std::map<std::uint64_t, std::uint64_t> run_writes;

  const auto note = [&](std::string text) {
    if (report.violations.size() < 32) {  // cap the noise
      report.violations.push_back(std::move(text));
    }
  };

  const auto finalize_run = [&] {
    const std::string where =
        in_cycle ? "cycle " + std::to_string(cycle_index) + ": "
                 : std::string("outside a cycle: ");
    const std::uint64_t leaves =
        run_leaf_count != 0 ? run_leaf_count : config.leaf_count;
    if (run_leaves.empty() && !(run_reads.empty() && run_writes.empty())) {
      note(where + "memory bucket events without an announced path");
    } else if (!run_reads.empty() || !run_writes.empty()) {
      if (!util::is_pow2(leaves)) {
        note(where + "memory bucket events of a tree with no leaf count");
      } else {
        const auto levels =
            static_cast<std::uint32_t>(util::floor_log2(leaves) + 1);
        std::set<std::uint64_t> expected;
        for (const std::uint64_t leaf : run_leaves) {
          for (std::uint32_t level = 0; level < levels; ++level) {
            expected.insert(((std::uint64_t{1} << level) - 1) +
                            (leaf >> (levels - 1 - level)));
          }
        }
        const auto check = [&](const std::map<std::uint64_t,
                                              std::uint64_t>& seen,
                               const char* verb) {
          for (const auto& [bucket, count] : seen) {
            if (count != 1) {
              note(where + "bucket " + std::to_string(bucket) + " " + verb +
                   " " + std::to_string(count) + " times in one group");
            }
            if (!expected.contains(bucket)) {
              note(where + "bucket " + std::to_string(bucket) + " " + verb +
                   " off the announced paths");
            }
          }
          for (const std::uint64_t bucket : expected) {
            if (!seen.contains(bucket)) {
              note(where + "bucket " + std::to_string(bucket) +
                   " of the announced paths not " + verb);
            }
          }
        };
        check(run_reads, "read");
        check(run_writes, "written");
      }
    }
    run_leaves.clear();
    run_leaf_count = 0;
    run_reads.clear();
    run_writes.clear();
  };

  const auto finalize_cycle = [&] {
    if (!in_cycle) {
      return;
    }
    if (cycle_paths != cycle_c) {
      note("cycle " + std::to_string(cycle_index) + ": " +
           std::to_string(cycle_paths) + " path accesses, expected " +
           std::to_string(cycle_c));
    }
    if (cycle_read_partitions.empty()) {
      note("cycle " + std::to_string(cycle_index) +
           ": no storage load observed");
    } else {
      for (const std::uint64_t p : cycle_read_partitions) {
        if (p != cycle_read_partitions.front()) {
          note("cycle " + std::to_string(cycle_index) +
               ": storage reads span multiple partitions");
          break;
        }
      }
      if (config.expect_single_read_per_cycle &&
          cycle_read_partitions.size() != 1) {
        note("cycle " + std::to_string(cycle_index) + ": " +
             std::to_string(cycle_read_partitions.size()) +
             " storage reads, expected exactly 1");
      }
    }
    in_cycle = false;
  };

  for (const oram::trace_event& event : trace.events()) {
    switch (event.kind) {
      case oram::event_kind::cycle_begin:
        finalize_run();
        finalize_cycle();
        in_cycle = true;
        cycle_index = event.a;
        cycle_c = event.b;
        cycle_paths = 0;
        cycle_read_partitions.clear();
        ++report.cycles;
        break;

      case oram::event_kind::storage_read_slot: {
        ++report.storage_reads;
        if (event.a >= total_slots) {
          note("storage read outside the layout: slot " +
               std::to_string(event.a));
          break;
        }
        if (!armed[event.a]) {
          note("slot " + std::to_string(event.a) +
               " read twice without an intervening rewrite");
        }
        armed[event.a] = false;
        if (in_cycle) {
          cycle_read_partitions.push_back(event.a /
                                          config.slots_per_partition);
        }
        break;
      }

      case oram::event_kind::storage_write_slot:
        if (event.a < total_slots) {
          armed[event.a] = true;
        }
        break;

      case oram::event_kind::storage_write_sweep: {
        for (std::uint64_t s = event.a;
             s < event.a + event.b && s < total_slots; ++s) {
          armed[s] = true;
        }
        if (pending_partition_check.has_value()) {
          const std::uint64_t p = *pending_partition_check;
          if (event.a != p * config.slots_per_partition ||
              event.b != config.main_capacity) {
            note("partition " + std::to_string(p) +
                 " shuffle did not rewrite its full main region");
          }
          pending_partition_check.reset();
        }
        break;
      }

      case oram::event_kind::storage_read_sweep:
        break;  // shuffle-phase streaming; arming unaffected

      case oram::event_kind::memory_path_access:
        // A new run starts once the current one has bucket events or
        // the announcement is another tree's.
        if (!run_reads.empty() || !run_writes.empty() ||
            (!run_leaves.empty() && event.b != run_leaf_count)) {
          finalize_run();
        }
        run_leaves.push_back(event.a);
        run_leaf_count = event.b;
        if (config.leaf_count > 0 && event.a < config.leaf_count) {
          ++leaf_counts[event.a];
        }
        ++report.path_accesses;
        if (in_cycle) {
          ++cycle_paths;
        }
        break;

      case oram::event_kind::memory_bucket_read:
        ++run_reads[event.a];
        break;
      case oram::event_kind::memory_bucket_write:
        ++run_writes[event.a];
        break;

      case oram::event_kind::shuffle_partition:
        pending_partition_check = event.a;
        break;

      case oram::event_kind::shuffle_begin:
        finalize_run();
        finalize_cycle();
        ++report.shuffles;
        break;

      case oram::event_kind::period_begin:
        finalize_run();
        finalize_cycle();
        break;

      case oram::event_kind::shuffle_slice:
        // Incremental shuffle work rides between rounds; the cycle's
        // own I/O is complete once a slice starts.
        finalize_run();
        finalize_cycle();
        break;
    }
  }
  finalize_run();
  finalize_cycle();

  // Leaf uniformity, when there are enough samples for the test.
  if (config.leaf_count > 1 &&
      report.path_accesses >= 5 * config.leaf_count) {
    report.leaf_chi_square = chi_square_uniform(leaf_counts);
    const double threshold = chi_square_threshold(config.leaf_count - 1);
    report.leaf_uniformity_ok = report.leaf_chi_square <= threshold;
    if (!report.leaf_uniformity_ok) {
      note("path leaf histogram failed the uniformity test: chi2 = " +
           std::to_string(report.leaf_chi_square) + " > " +
           std::to_string(threshold));
    }
  }
  return report;
}

}  // namespace horam::analysis
