// Tests for the workload generators, trace serialisation, the paper's
// closed-form model (§5.1 — including the exact Table 5-1 numbers) and
// the pattern auditor's ability to detect planted violations.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "analysis/pattern_audit.h"
#include "analysis/theoretical.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace horam {
namespace {

using oram::op_kind;

// ----------------------------------------------------------- workloads

workload::stream_config small_stream() {
  workload::stream_config c;
  c.request_count = 20000;
  c.block_count = 1000;
  c.write_fraction = 0.25;
  c.payload_bytes = 16;
  return c;
}

TEST(Workload, HotspotConcentratesRequests) {
  util::pcg64 rng(60);
  const auto stream = workload::hotspot(rng, small_stream(), 0.8, 0.1);
  ASSERT_EQ(stream.size(), 20000u);
  // The hot region holds 100 blocks; >= ~80% of requests land on some
  // 100-block window. Count id frequencies.
  std::map<std::uint64_t, int> counts;
  for (const auto& req : stream) {
    ASSERT_LT(req.id, 1000u);
    ++counts[req.id];
  }
  // Top-100 ids should absorb ~80% + 0.2*10% = 82% of requests.
  std::vector<int> freq;
  for (const auto& [id, count] : counts) {
    freq.push_back(count);
  }
  std::sort(freq.rbegin(), freq.rend());
  int top100 = 0;
  for (int i = 0; i < 100 && i < static_cast<int>(freq.size()); ++i) {
    top100 += freq[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(static_cast<double>(top100) / 20000.0, 0.82, 0.03);
}

TEST(Workload, WriteFractionHonoured) {
  util::pcg64 rng(61);
  const auto stream = workload::uniform(rng, small_stream());
  int writes = 0;
  for (const auto& req : stream) {
    if (req.op == op_kind::write) {
      ++writes;
      EXPECT_EQ(req.write_data.size(), 16u);
    } else {
      EXPECT_TRUE(req.write_data.empty());
    }
  }
  EXPECT_NEAR(writes / 20000.0, 0.25, 0.02);
}

TEST(Workload, UniformCoversTheSpace) {
  util::pcg64 rng(62);
  workload::stream_config c = small_stream();
  c.block_count = 100;
  const auto stream = workload::uniform(rng, c);
  std::set<std::uint64_t> ids;
  for (const auto& req : stream) {
    ids.insert(req.id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(Workload, ZipfIsSkewed) {
  util::pcg64 rng(63);
  const auto stream = workload::zipf(rng, small_stream(), 0.99);
  std::map<std::uint64_t, int> counts;
  for (const auto& req : stream) {
    ++counts[req.id];
  }
  std::vector<int> freq;
  for (const auto& [id, count] : counts) {
    freq.push_back(count);
  }
  std::sort(freq.rbegin(), freq.rend());
  // The most popular block dwarfs the median.
  EXPECT_GT(freq[0], 50 * std::max(1, freq[freq.size() / 2]));
}

TEST(Workload, SequentialWrapsAround) {
  workload::stream_config c = small_stream();
  c.request_count = 10;
  c.block_count = 4;
  const auto stream = workload::sequential(c, 3);
  const std::vector<std::uint64_t> expected = {0, 3, 2, 1, 0,
                                               3, 2, 1, 0, 3};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].id, expected[i]) << i;
  }
}

TEST(Workload, PayloadForIsDeterministic) {
  EXPECT_EQ(workload::payload_for(5, 9, 32),
            workload::payload_for(5, 9, 32));
  EXPECT_NE(workload::payload_for(5, 9, 32),
            workload::payload_for(5, 10, 32));
  EXPECT_NE(workload::payload_for(6, 9, 32),
            workload::payload_for(5, 9, 32));
}

TEST(Workload, GeneratorsAreSeedDeterministic) {
  util::pcg64 a(64), b(64);
  const auto s1 = workload::hotspot(a, small_stream());
  const auto s2 = workload::hotspot(b, small_stream());
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1[i].id, s2[i].id);
    ASSERT_EQ(s1[i].op, s2[i].op);
  }
}

TEST(TraceIo, RoundTrip) {
  util::pcg64 rng(65);
  workload::stream_config c = small_stream();
  c.request_count = 50;
  const auto stream = workload::uniform(rng, c);
  std::stringstream buffer;
  workload::save_trace(buffer, stream);
  const auto loaded = workload::load_trace(buffer, 16);
  ASSERT_EQ(loaded.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(loaded[i].id, stream[i].id);
    EXPECT_EQ(loaded[i].op, stream[i].op);
  }
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream buffer("X,12,0\n");
  EXPECT_THROW(workload::load_trace(buffer, 16), std::runtime_error);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream buffer("# header\n\nR,7,2\n");
  const auto loaded = workload::load_trace(buffer, 16);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].id, 7u);
  EXPECT_EQ(loaded[0].user, 2u);
}

// ------------------------------------------------------- theory (§5.1)

TEST(Theory, AverageCMatchesPaper) {
  // §5.2.1: stages {1, 3, 5} with fractions {0.2, 0.13, 0.67} -> 3.94.
  const double c = analysis::average_c({1, 3, 5}, {0.20, 0.13, 0.67});
  EXPECT_NEAR(c, 3.94, 0.01);
}

TEST(Theory, PathLevelMatchesTable51) {
  // 1 GB data (N = 2^20 blocks of 1 KB), 128 MB memory (n = 2^17):
  // total levels 16 + 4 = 20 by Eq 5-2 (the paper writes log2(n/Z)=16
  // using Z=2... our formula gives 15 + 4; assert the storage part,
  // which the overhead model actually uses, is exactly 4).
  const double total = analysis::path_level(1 << 17, 1 << 20, 4);
  const double storage_part = std::log2(2.0 * (1 << 20) / (1 << 17));
  EXPECT_DOUBLE_EQ(storage_part, 4.0);
  EXPECT_NEAR(total, 15.0 + 4.0, 1e-9);
}

TEST(Theory, PathOramIoMatchesTable51) {
  // Table 5-1 baseline: 16 KB reads + 16 KB writes per request = 16
  // blocks each way with Z=4 and 4 storage levels.
  const auto io = analysis::path_oram_io_per_request(1 << 20, 1 << 17, 4);
  EXPECT_DOUBLE_EQ(io.reads, 16.0);
  EXPECT_DOUBLE_EQ(io.writes, 16.0);
}

TEST(Theory, HoramIoMatchesEq54) {
  // Eq 5-4 at N = 2^20, n = 2^17, c = 4:
  // reads = 1 + 2(N-n)/(nc) = 1 + 2*(917504)/(524288) = 4.5
  // writes = 2N/(nc) = 4.
  const auto io = analysis::horam_io_per_request(1 << 20, 1 << 17, 4);
  EXPECT_DOUBLE_EQ(io.reads, 4.5);
  EXPECT_DOUBLE_EQ(io.writes, 4.0);
}

TEST(Theory, RequestsPerPeriodMatchesEq55) {
  // Eq 5-5: n*c/2 = 131072 * 4 / 2 = 262,144.
  EXPECT_EQ(analysis::requests_per_period(1 << 17, 4.0), 262144u);
}

TEST(Theory, PeriodOverheadMatchesTable51) {
  const auto overhead =
      analysis::horam_period_overhead(1 << 20, 1 << 17, 4.0, 1024);
  EXPECT_DOUBLE_EQ(overhead.access_read_kb, 1.0);
  EXPECT_DOUBLE_EQ(overhead.shuffle_read_gb, 0.875);
  EXPECT_DOUBLE_EQ(overhead.shuffle_write_gb, 1.0);
  EXPECT_DOUBLE_EQ(overhead.average_read_kb, 4.5);
  EXPECT_DOUBLE_EQ(overhead.average_write_kb, 4.0);
}

TEST(Theory, GainGrowsWithC) {
  const double g1 = analysis::theoretical_gain(8, 1, 4, 1.0, 1.0);
  const double g4 = analysis::theoretical_gain(8, 4, 4, 1.0, 1.0);
  const double g16 = analysis::theoretical_gain(8, 16, 4, 1.0, 1.0);
  EXPECT_LT(g1, g4);
  EXPECT_LT(g4, g16);
}

TEST(Theory, GainShrinksWithStorageRatio) {
  const double near = analysis::theoretical_gain(2, 4, 4, 1.0, 1.0);
  const double far = analysis::theoretical_gain(64, 4, 4, 1.0, 1.0);
  EXPECT_GT(near, far);
}

TEST(Theory, BestCaseGainInPaperRange) {
  // "The best performance is 12 times or 16 times faster": high c,
  // small N/n, with the measured 2:1 read/write asymmetry.
  const double best =
      analysis::theoretical_gain(2, 16, 4, 102.7e6, 55.2e6);
  EXPECT_GT(best, 10.0);
  EXPECT_LT(best, 18.0);
}

// ------------------------------------------------------------- auditor

TEST(Audit, ChiSquareFlagsSkewedHistograms) {
  std::vector<std::uint64_t> uniform(16, 1000);
  EXPECT_LT(analysis::chi_square_uniform(uniform),
            analysis::chi_square_threshold(15));
  std::vector<std::uint64_t> skewed(16, 10);
  skewed[3] = 10000;
  EXPECT_GT(analysis::chi_square_uniform(skewed),
            analysis::chi_square_threshold(15));
}

analysis::audit_config tiny_audit() {
  analysis::audit_config c;
  c.partition_count = 4;
  c.slots_per_partition = 8;
  c.main_capacity = 8;
  c.leaf_count = 0;  // skip leaf testing
  c.expect_single_read_per_cycle = true;
  return c;
}

TEST(Audit, CleanTracePasses) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 2);
  trace.record(oram::event_kind::storage_read_slot, 3);
  trace.record(oram::event_kind::memory_path_access, 0);
  trace.record(oram::event_kind::memory_path_access, 1);
  trace.record(oram::event_kind::cycle_begin, 1, 2);
  trace.record(oram::event_kind::storage_read_slot, 17);
  trace.record(oram::event_kind::memory_path_access, 2);
  trace.record(oram::event_kind::memory_path_access, 0);
  const auto report = analysis::audit_trace(trace, tiny_audit());
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.cycles, 2u);
  EXPECT_EQ(report.storage_reads, 2u);
}

TEST(Audit, DetectsRepeatedSlotRead) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 1);
  trace.record(oram::event_kind::storage_read_slot, 5);
  trace.record(oram::event_kind::memory_path_access, 0);
  trace.record(oram::event_kind::cycle_begin, 1, 1);
  trace.record(oram::event_kind::storage_read_slot, 5);  // leak!
  trace.record(oram::event_kind::memory_path_access, 0);
  const auto report = analysis::audit_trace(trace, tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("read twice"), std::string::npos);
}

TEST(Audit, RewriteReArmsSlot) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 1);
  trace.record(oram::event_kind::storage_read_slot, 5);
  trace.record(oram::event_kind::memory_path_access, 0);
  trace.record(oram::event_kind::shuffle_begin, 0);
  trace.record(oram::event_kind::storage_write_sweep, 0, 8);
  trace.record(oram::event_kind::cycle_begin, 1, 1);
  trace.record(oram::event_kind::storage_read_slot, 5);  // fresh again
  trace.record(oram::event_kind::memory_path_access, 0);
  EXPECT_TRUE(analysis::audit_trace(trace, tiny_audit()).passed());
}

TEST(Audit, DetectsWrongGroupSize) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 3);
  trace.record(oram::event_kind::storage_read_slot, 1);
  trace.record(oram::event_kind::memory_path_access, 0);  // only 1 of 3
  trace.record(oram::event_kind::cycle_begin, 1, 3);
  trace.record(oram::event_kind::storage_read_slot, 2);
  trace.record(oram::event_kind::memory_path_access, 0);
  trace.record(oram::event_kind::memory_path_access, 1);
  trace.record(oram::event_kind::memory_path_access, 2);
  const auto report = analysis::audit_trace(trace, tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("path accesses"),
            std::string::npos);
}

TEST(Audit, DetectsMissingLoad) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 1);
  trace.record(oram::event_kind::memory_path_access, 0);
  trace.record(oram::event_kind::cycle_begin, 1, 1);
  trace.record(oram::event_kind::storage_read_slot, 1);
  trace.record(oram::event_kind::memory_path_access, 0);
  const auto report = analysis::audit_trace(trace, tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("no storage load"),
            std::string::npos);
}

TEST(Audit, DetectsCrossPartitionReads) {
  analysis::audit_config config = tiny_audit();
  config.expect_single_read_per_cycle = false;
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 1);
  trace.record(oram::event_kind::storage_read_slot, 1);   // partition 0
  trace.record(oram::event_kind::storage_read_slot, 9);   // partition 1!
  trace.record(oram::event_kind::memory_path_access, 0);
  const auto report = analysis::audit_trace(trace, config);
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("multiple partitions"),
            std::string::npos);
}

TEST(Audit, DetectsIncompletePartitionRewrite) {
  oram::access_trace trace;
  trace.record(oram::event_kind::shuffle_begin, 0);
  trace.record(oram::event_kind::shuffle_partition, 1);
  trace.record(oram::event_kind::storage_write_sweep, 8, 4);  // half only
  const auto report = analysis::audit_trace(trace, tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("full main region"),
            std::string::npos);
}

/// A cycle of two announced paths in a 4-leaf tree (leaves 0 and 1:
/// union {0, 1, 3, 4}) with the given bucket reads, each union bucket
/// written once.
oram::access_trace union_cycle(std::vector<std::uint64_t> reads) {
  oram::access_trace trace;
  trace.record(oram::event_kind::cycle_begin, 0, 2);
  trace.record(oram::event_kind::storage_read_slot, 3);
  trace.record(oram::event_kind::memory_path_access, 0, 4);
  trace.record(oram::event_kind::memory_path_access, 1, 4);
  for (const std::uint64_t bucket : reads) {
    trace.record(oram::event_kind::memory_bucket_read, bucket);
  }
  for (const std::uint64_t bucket : {4, 3, 1, 0}) {
    trace.record(oram::event_kind::memory_bucket_write, bucket);
  }
  return trace;
}

TEST(Audit, UnionReadOfTheCyclePathsPasses) {
  EXPECT_TRUE(
      analysis::audit_trace(union_cycle({0, 1, 3, 4}), tiny_audit()).passed());
}

TEST(Audit, DetectsDuplicatedBucketRead) {
  // Bucket 1 read again for the second path: the union was not served
  // by one read per bucket.
  const auto report =
      analysis::audit_trace(union_cycle({0, 1, 3, 1, 4}), tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("bucket 1 read 2 times"),
            std::string::npos);
}

TEST(Audit, DetectsUnionBucketLeftUnread) {
  const auto report =
      analysis::audit_trace(union_cycle({0, 1, 3}), tiny_audit());
  ASSERT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].find("bucket 4 of the announced paths not "
                                      "read"),
            std::string::npos);
}

}  // namespace
}  // namespace horam
