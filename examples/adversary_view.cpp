// The adversary's view: runs a workload through H-ORAM with tracing on,
// dumps a window of the observable bus events, and then runs the
// pattern auditor over the full trace to check the obliviousness
// invariants (listed in src/analysis/pattern_audit.h) — the executable
// version of the paper's §4.4 security analysis.
//
//   $ ./examples/adversary_view
#include <cstdio>
#include <iostream>

#include "analysis/pattern_audit.h"
#include "horam.h"
#include "util/table.h"
#include "util/units.h"

namespace {

const char* kind_name(horam::oram::event_kind kind) {
  using horam::oram::event_kind;
  switch (kind) {
    case event_kind::storage_read_slot: return "storage read slot";
    case event_kind::storage_write_slot: return "storage write slot";
    case event_kind::storage_read_sweep: return "storage read sweep";
    case event_kind::storage_write_sweep: return "storage write sweep";
    case event_kind::memory_bucket_read: return "memory bucket read";
    case event_kind::memory_bucket_write: return "memory bucket write";
    case event_kind::memory_path_access: return "memory path access";
    case event_kind::cycle_begin: return "CYCLE";
    case event_kind::period_begin: return "PERIOD";
    case event_kind::shuffle_begin: return "SHUFFLE";
    case event_kind::shuffle_partition: return "shuffle partition";
    case event_kind::shuffle_slice: return "SHUFFLE SLICE";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace horam;

  client oram = client_builder()
                    .blocks(4096)
                    .memory_blocks(512)
                    .payload_bytes(64)
                    .logical_block_bytes(1024)
                    .seal(true)
                    .seed(2019)
                    .trace(true)
                    .build();

  workload::stream_config stream;
  stream.request_count = 4000;
  stream.block_count = oram.config().block_count;
  stream.write_fraction = 0.3;
  stream.payload_bytes = oram.config().payload_bytes;
  util::pcg64 wl(4);
  oram.run(workload::hotspot(wl, stream, 0.8, 0.05));
  const oram::access_trace& trace = *oram.trace();

  // --- A window of what the bus shows. ---
  std::printf("first three cycles as the adversary sees them "
              "(leaf/slot indices only — contents are sealed):\n");
  int cycles_shown = 0;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::cycle_begin) {
      if (++cycles_shown > 3) {
        break;
      }
      std::printf("  cycle %llu (group size c = %llu)\n",
                  static_cast<unsigned long long>(event.a),
                  static_cast<unsigned long long>(event.b));
      continue;
    }
    if (cycles_shown == 0) {
      continue;
    }
    if (event.kind == oram::event_kind::memory_bucket_read ||
        event.kind == oram::event_kind::memory_bucket_write) {
      continue;  // keep the dump readable; bucket events mirror paths
    }
    std::printf("    %-20s a=%llu b=%llu\n", kind_name(event.kind),
                static_cast<unsigned long long>(event.a),
                static_cast<unsigned long long>(event.b));
  }

  // --- The auditor's verdict over the whole run. ---
  analysis::audit_config audit;
  const storage::partition_geometry& geometry =
      oram.ctrl().storage().geometry();
  audit.partition_count = geometry.partition_count;
  audit.slots_per_partition = geometry.slots_per_partition();
  audit.main_capacity = geometry.main_capacity;
  audit.leaf_count = oram.ctrl().memory_tree().config().leaf_count;
  audit.expect_single_read_per_cycle = true;
  const analysis::audit_report report =
      analysis::audit_trace(trace, audit);

  std::printf("\npattern audit over %zu events:\n", trace.size());
  util::text_table table({"Check", "Result"});
  table.add_row({"cycles observed", util::format_count(report.cycles)});
  table.add_row({"storage slot reads",
                 util::format_count(report.storage_reads)});
  table.add_row({"path accesses", util::format_count(report.path_accesses)});
  table.add_row({"shuffle periods", util::format_count(report.shuffles)});
  table.add_row({"slot read-once invariant",
                 report.passed() ? "PASS" : "VIOLATED"});
  table.add_row({"cycle regularity (1 load + c paths)",
                 report.passed() ? "PASS" : "VIOLATED"});
  table.add_row(
      {"leaf uniformity chi-square",
       util::format_double(report.leaf_chi_square, 1) + " (" +
           (report.leaf_uniformity_ok ? "PASS" : "VIOLATED") + ")"});
  table.print(std::cout);
  for (const std::string& violation : report.violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (report.passed()) {
    std::printf("\nno invariant violated: hit/miss mix, request "
                "addresses and repetition are hidden.\n");
  }
  return report.passed() ? 0 : 1;
}
