// Property and stress tests across module boundaries: deep consistency
// audits under random operation mixes, cross-checks between independent
// implementations of the same function, and statistical properties of
// the security-relevant distributions.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "analysis/pattern_audit.h"
#include "core/controller.h"
#include "core/storage_layer.h"
#include "crypto/chacha20.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "workload/generators.h"

#include "test_support.h"

namespace horam {
namespace {

using oram::block_id;
using oram::dummy_block_id;
using oram::evicted_block;
using oram::op_kind;

// ------------------------------------- storage layer deep consistency

class StorageLayerStress
    : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(ShuffleCadence, StorageLayerStress,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(StorageLayerStress, ConsistentAfterRandomOperationMix) {
  const std::uint32_t cadence = GetParam();
  sim::block_device disk(sim::hdd_paper());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(8000 + cadence));
  oram::access_trace trace;

  horam_config config;
  config.block_count = 256;
  config.memory_blocks = 64;
  config.payload_bytes = 16;
  config.seal = false;
  config.shuffle_every_periods = cadence;
  config.partition_slack = 1.4;
  storage_layer layer(config, disk, cpu, rng, &trace, nullptr);
  layer.check_consistency();

  util::pcg64 driver(test::seed(9000 + cadence));
  std::unordered_map<block_id, bool> cached;
  std::uint64_t period = 0;
  std::uint64_t loads_this_period = 0;
  std::vector<evicted_block> in_memory;
  for (int step = 0; step < 400; ++step) {
    const block_id id = util::uniform_below(driver, 256);
    if (layer.in_storage(id)) {
      in_memory.push_back(evicted_block{id, layer.load_block(id).payload});
    } else {
      const auto result = layer.dummy_load();
      if (result.id != dummy_block_id) {
        in_memory.push_back(evicted_block{result.id, result.payload});
      }
    }
    if (++loads_this_period >= config.period_loads()) {
      std::vector<evicted_block> overflow;
      layer.shuffle_period(std::move(in_memory), period++, overflow);
      in_memory = std::move(overflow);
      loads_this_period = 0;
      layer.check_consistency();
    }
  }
  layer.check_consistency();
}

// -------------------------------------------- RNG / cipher cross-checks

TEST(CrossCheck, ChaChaRngMatchesRawKeystream) {
  // chacha_rng must produce exactly the ChaCha20 keystream of its
  // (key, stream-nonce) pair — no hidden state drift.
  crypto::chacha_key key{};
  key[0] = 0xab;
  crypto::chacha_rng rng(key, /*stream=*/0);

  crypto::chacha_nonce nonce{};  // stream 0 -> zero nonce
  std::array<std::uint8_t, 64> block;
  crypto::chacha20_block(key, 0, nonce, block);
  for (int word = 0; word < 8; ++word) {
    std::uint64_t expected = 0;
    for (int b = 0; b < 8; ++b) {
      expected |= static_cast<std::uint64_t>(
                      block[static_cast<std::size_t>(8 * word + b)])
                  << (8 * b);
    }
    EXPECT_EQ(rng.next_u64(), expected) << "word " << word;
  }
}

TEST(CrossCheck, UniformBelowMatchesRejectionSampler) {
  // Lemire reduction must agree in distribution with plain rejection
  // sampling: compare bucket histograms from the same seed space.
  constexpr std::uint64_t bound = 7;
  constexpr int draws = 70000;
  util::pcg64 a(test::seed(10)), b(test::seed(10));
  std::array<int, bound> lemire{}, rejection{};
  for (int i = 0; i < draws; ++i) {
    lemire[util::uniform_below(a, bound)]++;
    // Rejection sampler on an independent stream.
    std::uint64_t v = 0;
    do {
      v = b.next_u64() >> 32;  // 32-bit values; bias negligible
    } while (v >= (0xffffffffULL / bound) * bound);
    rejection[v % bound]++;
  }
  for (std::uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(lemire[k], rejection[k], 700) << "bucket " << k;
  }
}

// ------------------------------------------ distributional properties

TEST(Distribution, StorageLoadsAreUniformOverSlots) {
  // Aggregated over many periods, the first storage read of each
  // period should be uniform across partitions (chi-square).
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(11));
  oram::access_trace trace;
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 64;
  config.payload_bytes = 8;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng, &trace);
  util::pcg64 wl(test::seed(12));
  workload::stream_config stream;
  stream.request_count = 6000;
  stream.block_count = 1024;
  stream.payload_bytes = 8;
  ctrl.run(workload::uniform(wl, stream));

  const std::uint64_t spp =
      ctrl.storage().geometry().slots_per_partition();
  std::vector<std::uint64_t> per_partition(
      ctrl.storage().geometry().partition_count, 0);
  for (const auto& event : trace.events()) {
    if (event.kind == oram::event_kind::storage_read_slot) {
      ++per_partition[event.a / spp];
    }
  }
  const double chi2 = analysis::chi_square_uniform(per_partition);
  EXPECT_LT(chi2, analysis::chi_square_threshold(per_partition.size() -
                                                 1));
}

// ------------------------------------------------ controller accounting

TEST(Accounting, BusyTimesNeverExceedWallTime) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(13));
  horam_config config;
  config.block_count = 512;
  config.memory_blocks = 64;
  config.payload_bytes = 16;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);
  util::pcg64 wl(test::seed(14));
  workload::stream_config stream;
  stream.request_count = 3000;
  stream.block_count = 512;
  stream.payload_bytes = 16;
  ctrl.run(workload::hotspot(wl, stream));

  const controller_stats& stats = ctrl.stats();
  // Each device's busy time is bounded by wall time (single device,
  // serial operations).
  EXPECT_LE(stats.io_busy, stats.total_time);
  EXPECT_LE(stats.memory_busy, stats.total_time);
  // The two lanes plus CPU account for at least the access-period time
  // (overlap means their sum can exceed wall time).
  EXPECT_GE(stats.io_busy + stats.memory_busy + stats.cpu_busy,
            stats.access_time);
}

TEST(Accounting, AsyncDebtNeverMakesRunsSlowerThanForeground) {
  const auto total_with = [](shuffle_policy policy) {
    sim::block_device disk(sim::hdd_paper());
    sim::block_device memory(sim::dram_ddr4());
    const sim::cpu_model cpu(sim::cpu_aesni());
    util::pcg64 rng(test::seed(15));
    horam_config config;
    config.block_count = 512;
    config.memory_blocks = 64;
    config.payload_bytes = 16;
    config.seal = false;
    config.shuffle = policy;
    controller ctrl(config, disk, memory, cpu, rng);
    util::pcg64 wl(test::seed(16));
    workload::stream_config stream;
    stream.request_count = 4000;
    stream.block_count = 512;
    stream.payload_bytes = 16;
    ctrl.run(workload::uniform(wl, stream));
    return ctrl.now();
  };
  // Deferring writes can only help or break even, never hurt.
  EXPECT_LE(total_with(shuffle_policy::async_writeback),
            total_with(shuffle_policy::foreground));
}

TEST(Accounting, CompletionTimesAreMonotonePerBlockProgramOrder) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(test::seed(17));
  horam_config config;
  config.block_count = 128;
  config.memory_blocks = 32;
  config.payload_bytes = 8;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  // Several requests to the same block must complete in program order
  // (the scheduler scans the ROB in order).
  std::vector<request> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(request{op_kind::read, 7, 0, {}});
    batch.push_back(request{op_kind::read, 9, 0, {}});
  }
  std::vector<request_result> results;
  ctrl.run(batch, &results);
  for (std::size_t i = 2; i < results.size(); ++i) {
    EXPECT_GE(results[i].completion_time, results[i - 2].completion_time)
        << "request " << i;
  }
}

}  // namespace
}  // namespace horam
