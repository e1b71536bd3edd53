// End-to-end tests of the H-ORAM controller: data correctness across
// periods and shuffles (differential testing against a shadow map),
// scheduling behaviour, policy timing and obliviousness audits of the
// full bus trace.
#include <gtest/gtest.h>

#include <map>

#include "analysis/pattern_audit.h"
#include "core/controller.h"
#include "crypto/siphash.h"
#include "horam.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

struct fixture {
  sim::block_device disk{sim::hdd_paper()};
  sim::block_device memory{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{41};
  oram::access_trace trace;

  horam_config config(std::uint64_t n = 512, std::uint64_t mem = 64) {
    horam_config c;
    c.block_count = n;
    c.memory_blocks = mem;
    c.payload_bytes = 16;
    c.seal = true;
    return c;
  }
};

std::vector<std::uint8_t> tagged(std::uint8_t tag) {
  return std::vector<std::uint8_t>(16, tag);
}

TEST(Controller, SingleOpReadWriteRoundTrip) {
  fixture fx;
  controller ctrl(fx.config(), fx.disk, fx.memory, fx.cpu, fx.rng);
  ctrl.write(100, tagged(0x5c));
  EXPECT_EQ(ctrl.read(100), tagged(0x5c));
  EXPECT_EQ(ctrl.read(101), std::vector<std::uint8_t>(16, 0));
}

TEST(Controller, ShadowMapAcrossManyPeriods) {
  fixture fx;
  controller ctrl(fx.config(256, 32), fx.disk, fx.memory, fx.cpu, fx.rng);
  // Period = 16 loads; 3000 requests span dozens of shuffle periods.
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(42);
  std::vector<request> batch;
  std::vector<std::vector<std::uint8_t>> expected_reads;
  for (int step = 0; step < 3000; ++step) {
    request req;
    req.id = util::uniform_below(driver, 256);
    if (util::bernoulli(driver, 0.3)) {
      req.op = op_kind::write;
      req.write_data = tagged(static_cast<std::uint8_t>(step));
      shadow[req.id] = req.write_data;
      expected_reads.emplace_back();
    } else {
      req.op = op_kind::read;
      expected_reads.push_back(shadow.contains(req.id)
                                   ? shadow[req.id]
                                   : std::vector<std::uint8_t>(16, 0));
    }
    batch.push_back(std::move(req));
  }
  // NOTE: requests in one batch may be serviced out of order, so the
  // shadow expectation must be taken per-request at submission time —
  // the scheduler preserves per-block program order only for blocks
  // serviced through the memory tree. To keep the oracle exact, submit
  // sequentially here.
  std::vector<request_result> results;
  std::uint64_t checked = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::vector<request> one{batch[i]};
    ctrl.run(one, &results);
    if (batch[i].op == op_kind::read) {
      ASSERT_EQ(results[0].read_data, expected_reads[i])
          << "request " << i << " id " << batch[i].id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(ctrl.stats().periods, 5u);
}

TEST(Controller, BatchModeServicesEveryRequest) {
  fixture fx;
  controller ctrl(fx.config(256, 32), fx.disk, fx.memory, fx.cpu, fx.rng);
  workload::stream_config stream;
  stream.request_count = 2000;
  stream.block_count = 256;
  stream.write_fraction = 0.25;
  stream.payload_bytes = 16;
  util::pcg64 gen(43);
  const std::vector<request> batch = workload::hotspot(gen, stream);
  std::vector<request_result> results;
  ctrl.run(batch, &results);

  ASSERT_EQ(results.size(), batch.size());
  const controller_stats& stats = ctrl.stats();
  EXPECT_EQ(stats.requests, 2000u);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.cycles, stats.real_loads + stats.dummy_loads);
  // A block evicted by a shuffle before its requester was serviced is
  // re-loaded, so loads can exceed the count of miss-classified requests.
  EXPECT_GE(stats.real_loads, stats.misses);
  for (const request_result& result : results) {
    EXPECT_GT(result.completion_time, 0);
    EXPECT_LE(result.completion_time, ctrl.now());
  }
}

TEST(Controller, LastWriteWinsWithinBatch) {
  // Writes and reads to the same block in one batch are serviced in
  // program order by the scheduler's in-order window scan.
  fixture fx;
  controller ctrl(fx.config(), fx.disk, fx.memory, fx.cpu, fx.rng);
  std::vector<request> batch;
  request w1{op_kind::write, 5, 0, tagged(1)};
  request w2{op_kind::write, 5, 0, tagged(2)};
  request r{op_kind::read, 5, 0, {}};
  batch.push_back(w1);
  batch.push_back(w2);
  batch.push_back(r);
  std::vector<request_result> results;
  ctrl.run(batch, &results);
  EXPECT_EQ(results[2].read_data, tagged(2));
}

TEST(Controller, PeriodEndsAfterHalfMemoryLoads) {
  fixture fx;
  controller ctrl(fx.config(512, 64), fx.disk, fx.memory, fx.cpu, fx.rng);
  // period_loads = 32; a uniform all-miss stream of 40 requests must
  // trigger exactly one shuffle.
  std::vector<request> batch;
  for (block_id id = 0; id < 40; ++id) {
    batch.push_back(request{op_kind::read, id, 0, {}});
  }
  ctrl.run(batch);
  EXPECT_EQ(ctrl.stats().periods, 1u);
  EXPECT_GT(ctrl.stats().shuffle_time, 0);
}

TEST(Controller, MemoryResidencyIsBoundedByPeriod) {
  fixture fx;
  controller ctrl(fx.config(512, 64), fx.disk, fx.memory, fx.cpu, fx.rng);
  workload::stream_config stream;
  stream.request_count = 500;
  stream.block_count = 512;
  stream.payload_bytes = 16;
  util::pcg64 gen(44);
  ctrl.run(workload::uniform(gen, stream));
  // The tree never holds more than period_loads = n/2 real blocks.
  EXPECT_LE(ctrl.memory_tree().resident_blocks(),
            ctrl.config().period_loads());
}

TEST(Controller, HitsAreCheaperThanColdMisses) {
  fixture fx;
  controller ctrl(fx.config(), fx.disk, fx.memory, fx.cpu, fx.rng);
  // Warm one block, then hammer it: hit rate should be high.
  std::vector<request> warm{request{op_kind::write, 9, 0, tagged(9)}};
  ctrl.run(warm);
  std::vector<request> hammer(50, request{op_kind::read, 9, 0, {}});
  const std::uint64_t misses_before = ctrl.stats().misses;
  ctrl.run(hammer);
  EXPECT_EQ(ctrl.stats().misses, misses_before);  // all hits
}

TEST(Controller, DeterministicForFixedSeeds) {
  const auto run_once = [] {
    fixture fx;
    controller ctrl(fx.config(256, 32), fx.disk, fx.memory, fx.cpu,
                    fx.rng);
    workload::stream_config stream;
    stream.request_count = 1000;
    stream.block_count = 256;
    stream.payload_bytes = 16;
    util::pcg64 gen(45);
    ctrl.run(workload::hotspot(gen, stream));
    return std::tuple(ctrl.stats().cycles, ctrl.stats().hits,
                      ctrl.now());
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------------ policy timing

TEST(Controller, ShufflePolicyOrdering) {
  const auto total_time_with = [](shuffle_policy policy) {
    fixture fx;
    horam_config c = fx.config(512, 64);
    c.shuffle = policy;
    controller ctrl(c, fx.disk, fx.memory, fx.cpu, fx.rng);
    workload::stream_config stream;
    stream.request_count = 1500;
    stream.block_count = 512;
    stream.payload_bytes = 16;
    util::pcg64 gen(46);
    ctrl.run(workload::uniform(gen, stream));
    EXPECT_GT(ctrl.stats().periods, 0u);
    return ctrl.now();
  };
  const sim::sim_time foreground =
      total_time_with(shuffle_policy::foreground);
  const sim::sim_time async =
      total_time_with(shuffle_policy::async_writeback);
  const sim::sim_time offloaded =
      total_time_with(shuffle_policy::offloaded);
  EXPECT_GT(foreground, async);
  EXPECT_GT(async, offloaded);
}

// ------------------------------------------------------------- audits

TEST(Controller, FullShuffleTracePassesAudit) {
  fixture fx;
  controller ctrl(fx.config(256, 32), fx.disk, fx.memory, fx.cpu, fx.rng,
                  &fx.trace);
  workload::stream_config stream;
  stream.request_count = 1500;
  stream.block_count = 256;
  stream.write_fraction = 0.3;
  stream.payload_bytes = 16;
  util::pcg64 gen(47);
  ctrl.run(workload::hotspot(gen, stream));

  analysis::audit_config audit;
  audit.partition_count = ctrl.storage().geometry().partition_count;
  audit.slots_per_partition =
      ctrl.storage().geometry().slots_per_partition();
  audit.main_capacity = ctrl.storage().geometry().main_capacity;
  audit.leaf_count = ctrl.memory_tree().config().leaf_count;
  audit.expect_single_read_per_cycle = true;
  const analysis::audit_report report =
      analysis::audit_trace(fx.trace, audit);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_GT(report.cycles, 0u);
  EXPECT_GT(report.shuffles, 0u);
  EXPECT_TRUE(report.leaf_uniformity_ok);
}

TEST(Controller, PartialShuffleTracePassesAudit) {
  fixture fx;
  horam_config c = fx.config(256, 32);
  c.shuffle_every_periods = 4;
  controller ctrl(c, fx.disk, fx.memory, fx.cpu, fx.rng, &fx.trace);
  workload::stream_config stream;
  stream.request_count = 1500;
  stream.block_count = 256;
  stream.payload_bytes = 16;
  util::pcg64 gen(48);
  ctrl.run(workload::hotspot(gen, stream));

  analysis::audit_config audit;
  audit.partition_count = ctrl.storage().geometry().partition_count;
  audit.slots_per_partition =
      ctrl.storage().geometry().slots_per_partition();
  audit.main_capacity = ctrl.storage().geometry().main_capacity;
  audit.leaf_count = ctrl.memory_tree().config().leaf_count;
  // Loads may add masking reads: >1 read per cycle, same partition.
  audit.expect_single_read_per_cycle = false;
  const analysis::audit_report report =
      analysis::audit_trace(fx.trace, audit);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(Controller, PartialShuffleCorrectness) {
  fixture fx;
  horam_config c = fx.config(256, 32);
  c.shuffle_every_periods = 4;
  controller ctrl(c, fx.disk, fx.memory, fx.cpu, fx.rng);
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(49);
  for (int step = 0; step < 1500; ++step) {
    const block_id id = util::uniform_below(driver, 256);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(static_cast<std::uint8_t>(step));
      ctrl.write(id, data);
      shadow[id] = data;
    } else {
      const auto out = ctrl.read(id);
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(16, 0);
      ASSERT_EQ(out, expected) << "step " << step << " id " << id;
    }
  }
  EXPECT_GT(ctrl.stats().periods, 10u);
  EXPECT_GT(ctrl.storage().stats().append_segments, 0u);
}

TEST(Controller, StorageSmallerThanPathOramBaseline) {
  // The paper's second claim: H-ORAM needs ~N blocks of storage vs the
  // baseline's 2N.
  fixture fx;
  const horam_config c = fx.config(1024, 64);
  controller ctrl(c, fx.disk, fx.memory, fx.cpu, fx.rng);
  const std::uint64_t record =
      c.payload_bytes + 8 + crypto::seal_overhead;
  EXPECT_LT(ctrl.storage().physical_bytes(),
            2 * c.block_count * record);
}

// --------------------------------------------------- parameter sweeps

struct sweep_params {
  std::uint64_t block_count;
  std::uint64_t memory_blocks;
  std::uint32_t shuffle_every;
};

class ControllerSweep : public ::testing::TestWithParam<sweep_params> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, ControllerSweep,
    ::testing::Values(sweep_params{128, 16, 1}, sweep_params{256, 32, 1},
                      sweep_params{256, 64, 1}, sweep_params{512, 32, 1},
                      sweep_params{256, 32, 2}, sweep_params{256, 32, 4},
                      sweep_params{1024, 128, 1},
                      sweep_params{1024, 128, 4}));

TEST_P(ControllerSweep, DifferentialCorrectnessAndInvariants) {
  const sweep_params params = GetParam();
  fixture fx;
  horam_config c = fx.config(params.block_count, params.memory_blocks);
  c.shuffle_every_periods = params.shuffle_every;
  controller ctrl(c, fx.disk, fx.memory, fx.cpu, fx.rng);

  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(51 + params.block_count);
  std::vector<request> batch;
  for (int step = 0; step < 600; ++step) {
    request req;
    req.id = util::uniform_below(driver, params.block_count);
    req.op = util::bernoulli(driver, 0.5) ? op_kind::write : op_kind::read;
    if (req.op == op_kind::write) {
      req.write_data = workload::payload_for(req.id, step, 16);
    }
    batch.push_back(req);
  }
  // Submit in mini-batches of 20 (out-of-order within a batch, ordered
  // between batches) and verify reads against the shadow at batch ends.
  for (std::size_t first = 0; first < batch.size(); first += 20) {
    std::vector<request> chunk(
        batch.begin() + static_cast<std::ptrdiff_t>(first),
        batch.begin() + static_cast<std::ptrdiff_t>(first + 20));
    // Drop duplicate-id requests to keep the oracle exact under
    // reordering.
    std::set<block_id> seen;
    std::vector<request> unique;
    for (request& req : chunk) {
      if (seen.insert(req.id).second) {
        unique.push_back(std::move(req));
      }
    }
    std::vector<request_result> results;
    ctrl.run(unique, &results);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (unique[i].op == op_kind::write) {
        shadow[unique[i].id] = unique[i].write_data;
      } else {
        const auto expected =
            shadow.contains(unique[i].id)
                ? shadow[unique[i].id]
                : std::vector<std::uint8_t>(16, 0);
        ASSERT_EQ(results[i].read_data, expected)
            << "chunk " << first << " index " << i;
      }
    }
  }
  const controller_stats& stats = ctrl.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_EQ(stats.cycles, stats.real_loads + stats.dummy_loads);
  EXPECT_LE(ctrl.memory_tree().stash_ref().peak_size(), 128u);
}

// ------------------------------------------------------ cycle golden

/// SipHash digest of a fixed-seed run through the coalescing engine:
/// every bus event except the memory-bucket ones, plus every payload
/// the run reads back. Partial shuffling (every third period) leaves
/// overflow in the shelter, a bounded slice budget keeps staged blocks
/// in flight, and reads merged ahead of a write coalesce into
/// fetch-before-write accesses, so every kind of hit occurs.
std::uint64_t cycle_golden_digest(client& c) {
  std::vector<std::uint8_t> transcript;
  const auto append_word = [&](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      transcript.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  };
  util::pcg64 driver(4242);
  std::vector<request_result> results;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<request> requests(24);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      request& req = requests[i];
      // Half the traffic on 16 hot blocks, so rounds coalesce.
      req.id = util::bernoulli(driver, 0.5) ? util::uniform_below(driver, 16)
                                            : util::uniform_below(driver, 256);
      if (util::bernoulli(driver, 0.4)) {
        req.op = op_kind::write;
        req.write_data.assign(16, static_cast<std::uint8_t>(batch * 31 + i));
      }
    }
    c.run(requests, &results);
    for (const request_result& result : results) {
      transcript.insert(transcript.end(), result.read_data.begin(),
                        result.read_data.end());
    }
  }
  for (const oram::trace_event& event : c.trace()->events()) {
    if (event.kind == oram::event_kind::memory_bucket_read ||
        event.kind == oram::event_kind::memory_bucket_write) {
      continue;
    }
    append_word(static_cast<std::uint64_t>(event.kind));
    append_word(event.a);
    append_word(event.b);
  }
  return crypto::siphash24(crypto::siphash_key{}, transcript);
}

// The digest was recorded when every cache-tree access read and wrote
// its own path. Serving a cycle's accesses as one group changes only
// the memory-bucket events (and nonces and the memory-lane charge):
// leaves, storage events, shuffles and every payload stay the same.
TEST(ControllerGolden, TraceOutsideMemoryBucketsMatchesRecordedDigest) {
  client c = client_builder()
                 .blocks(256)
                 .memory_blocks(64)
                 .payload_bytes(16)
                 .backend(backend_kind::partitioned)
                 .coalescing(true)
                 .shuffle(shuffle_policy::incremental)
                 .shuffle_slice_budget(1'000'000)
                 .shuffle_every(3)
                 .trace(true)
                 .seed(2019)
                 .build();
  EXPECT_EQ(cycle_golden_digest(c), 0x54507356dcfbd10fULL);
  EXPECT_GT(c.stats().trusted_hits, 0u);
  EXPECT_GT(c.stats().shuffle_slices, 0u);
}

}  // namespace
}  // namespace horam
