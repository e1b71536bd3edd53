// Cross-module integration tests: H-ORAM against the sqrt and partition
// backends on identical virtual machines, cost-shape properties the
// paper's argument depends on, file-backed trace round trips, and edge /
// degenerate configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "core/controller.h"
#include "horam.h"
#include "sim/buffer_cache.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

// ------------------------------------------------ cost-shape checks

TEST(CostShapes, HoramHitsCostLessIoThanSqrtAccesses) {
  // The core pitch: square-root ORAM pays one storage read per access,
  // always; H-ORAM pays one storage read per *cycle* but services c
  // requests with it.
  sim::block_device horam_disk(sim::hdd_paper());
  sim::block_device horam_memory(sim::dram_ddr4());
  sim::block_device sqrt_disk(sim::hdd_paper());
  sim::block_device cached_sqrt_disk(sim::hdd_paper());
  sim::block_device cached_sqrt_memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng_a(81), rng_b(82), rng_c(84);

  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = 32;
  config.seal = false;
  controller horam_ctrl(config, horam_disk, horam_memory, cpu, rng_a);

  // Same hot workload on all three.
  util::pcg64 wl(83);
  workload::stream_config stream;
  stream.request_count = 2000;
  stream.block_count = 1024;
  stream.payload_bytes = 32;
  const auto requests = workload::hotspot(wl, stream, 0.8, 0.05);
  horam_ctrl.run(requests);

  // The sqrt backend driven as the classic scheme: a miss loads its
  // block into the shelter, a shelter hit reads the next dummy, and
  // every period folds the shelter back in and reshuffles.
  const std::unique_ptr<oram_backend> sqrt = make_backend(
      backend_kind::sqrt, config, sqrt_disk, cpu, rng_b, nullptr, nullptr);
  std::map<block_id, std::vector<std::uint8_t>> shelter;
  std::uint64_t periods = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (sqrt->in_storage(requests[i].id)) {
      shelter[requests[i].id] = sqrt->load_block(requests[i].id).payload;
    } else {
      (void)sqrt->dummy_load();
    }
    if ((i + 1) % config.period_loads() == 0) {
      std::vector<oram::evicted_block> evicted;
      for (auto& [id, payload] : shelter) {
        evicted.push_back(oram::evicted_block{id, std::move(payload)});
      }
      shelter.clear();
      std::vector<oram::evicted_block> overflow;
      (void)sqrt->shuffle_period(std::move(evicted), periods++, overflow);
      ASSERT_TRUE(overflow.empty());
    }
  }
  sqrt->check_consistency();

  // The same sqrt store behind the H-ORAM controller.
  controller cached_sqrt(
      config,
      make_backend(backend_kind::sqrt, config, cached_sqrt_disk, cpu, rng_c,
                   nullptr, nullptr),
      cached_sqrt_memory, cpu, rng_c);
  cached_sqrt.run(requests);

  // Storage reads: H-ORAM one per cycle; classic sqrt one per request.
  EXPECT_LT(horam_ctrl.stats().cycles, 2000u);
  const backend_stats& classic = sqrt->stats();
  EXPECT_EQ(classic.real_loads + classic.dummy_loads, 2000u);
  EXPECT_EQ(classic.exhausted_dummy_loads, 0u);
  EXPECT_GT(periods, 0u);
  const backend_stats& cached = cached_sqrt.backend().stats();
  EXPECT_LT(cached.real_loads + cached.dummy_loads, 2000u);
}

TEST(CostShapes, HoramAccessPeriodIoIsOneBlockPerCycle) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(84);
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = 32;
  config.logical_block_bytes = 1024;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  // Fewer requests than a period: no shuffle, so all storage traffic
  // is loads — exactly cycles * 1 KB read, nothing written.
  std::vector<request> batch;
  for (block_id id = 0; id < 40; ++id) {
    batch.push_back(request{op_kind::read, id, 0, {}});
  }
  ctrl.run(batch);
  EXPECT_EQ(ctrl.stats().periods, 0u);
  EXPECT_EQ(disk.stats().bytes_read, ctrl.stats().cycles * 1024);
  EXPECT_EQ(disk.stats().bytes_written, 0u);
}

TEST(CostShapes, ShuffleTrafficIsOverwhelminglySequential) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(85);
  horam_config config;
  config.block_count = 4096;
  config.memory_blocks = 256;
  config.payload_bytes = 32;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  util::pcg64 wl(86);
  workload::stream_config stream;
  stream.request_count = 2000;
  stream.block_count = 4096;
  stream.payload_bytes = 32;
  ctrl.run(workload::uniform(wl, stream));
  ASSERT_GT(ctrl.stats().periods, 0u);

  // Writes only happen in shuffles, and partitions are streamed: the
  // per-op payload must be large (whole partitions, not single blocks).
  const auto& io = disk.stats();
  ASSERT_GT(io.write_ops, 0u);
  EXPECT_GT(io.bytes_written / io.write_ops,
            10 * (config.payload_bytes + 8));
}

TEST(CostShapes, PartitionOramShufflesMoreOftenButSmaller) {
  // §2.1.4 vs §4.3: partition ORAM shuffles one ~sqrt(N)-block
  // partition at a time, in isolation — many small streamed rewrites
  // per period instead of one pass over the whole store.
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(87);
  oram::access_trace trace;
  horam_config config;
  config.block_count = 1024;
  config.memory_blocks = 128;
  config.payload_bytes = 32;
  config.logical_block_bytes = 1024;
  config.seal = false;
  controller ctrl(config,
                  make_backend(backend_kind::partition, config, disk, cpu,
                               rng, &trace, nullptr),
                  memory, cpu, rng, &trace);
  util::pcg64 wl(88);
  workload::stream_config stream;
  stream.request_count = 500;
  stream.block_count = 1024;
  stream.payload_bytes = 32;
  ctrl.run(workload::uniform(wl, stream));
  // Then a cached working set, so most cycles load a dummy slot.
  std::vector<request> hot;
  for (block_id i = 0; i < 2000; ++i) {
    hot.push_back(request{op_kind::read, i % 16, 0, {}});
  }
  ctrl.run(hot);

  const auto& backend =
      dynamic_cast<const oram::partition_backend&>(ctrl.backend());
  const std::uint64_t shuffled = backend.stats().partitions_shuffled;
  ASSERT_GT(ctrl.stats().periods, 0u);
  EXPECT_GT(shuffled, 10u);                     // many small shuffles
  EXPECT_GT(shuffled, ctrl.stats().periods);    // several per period
  const std::uint64_t capacity = backend.geometry().main_capacity;
  EXPECT_LT(capacity, config.block_count / 8);  // each one ~sqrt(N)
  // Each rewrite streams exactly one partition back out.
  EXPECT_EQ(disk.stats().write_ops, shuffled);
  EXPECT_EQ(disk.stats().bytes_written,
            shuffled * capacity * config.logical_block_bytes);

  // Between two rewrites of its partition no slot is read twice.
  std::set<std::uint64_t> read_since_rewrite;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::storage_read_slot) {
      ASSERT_TRUE(read_since_rewrite.insert(event.a).second)
          << "slot " << event.a << " read twice";
    } else if (event.kind == oram::event_kind::storage_write_sweep) {
      read_since_rewrite.erase(read_since_rewrite.lower_bound(event.a),
                               read_since_rewrite.lower_bound(event.a +
                                                              event.b));
    }
  }
}

// ------------------------------------------------- page-cache effect

TEST(BufferCacheIntegration, CacheExplainsThesisLatencies) {
  // A raw 7200 RPM disk costs ~8.5 ms per random read; behind a big
  // LRU page cache, repeated touches cost microseconds — this is why
  // the thesis's measured "HDD" latencies are far below seek time.
  sim::block_device raw(sim::hdd_7200_raw());
  sim::buffer_cache cache(raw, {.page_size = 4096,
                                .capacity_pages = 1 << 14,
                                .hit_time = 2000});
  const sim::sim_time cold = cache.read(123456789, 1024);
  const sim::sim_time warm = cache.read(123456789, 1024);
  EXPECT_GT(cold, 8 * util::milliseconds);
  EXPECT_LT(warm, 10 * util::microseconds);
}

// ------------------------------------------------- trace file round trip

TEST(TraceFiles, SaveAndReplayFromDisk) {
  util::pcg64 rng(89);
  workload::stream_config stream;
  stream.request_count = 200;
  stream.block_count = 512;
  stream.write_fraction = 0.3;
  stream.payload_bytes = 16;
  const auto original = workload::hotspot(rng, stream);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "horam_trace_test.csv";
  {
    std::ofstream out(path);
    workload::save_trace(out, original);
  }
  std::ifstream in(path);
  const auto loaded = workload::load_trace(in, 16);
  std::filesystem::remove(path);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded[i].id, original[i].id);
    ASSERT_EQ(loaded[i].op, original[i].op);
  }

  // Replaying the loaded trace gives identical scheduling statistics.
  const auto run_stats = [](const std::vector<request>& batch) {
    sim::block_device disk(sim::hdd_paper());
    sim::block_device memory(sim::dram_ddr4());
    const sim::cpu_model cpu(sim::cpu_aesni());
    util::pcg64 seed(90);
    horam_config config;
    config.block_count = 512;
    config.memory_blocks = 64;
    config.payload_bytes = 16;
    config.seal = false;
    controller ctrl(config, disk, memory, cpu, seed);
    ctrl.run(batch);
    return std::pair(ctrl.stats().cycles, ctrl.now());
  };
  EXPECT_EQ(run_stats(original).first, run_stats(loaded).first);
}

// -------------------------------------------------------- edge cases

TEST(EdgeCases, SmallestViableHoram) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(91);
  horam_config config;
  config.block_count = 32;
  config.memory_blocks = 8;  // period = 4 loads
  config.payload_bytes = 8;
  config.seal = true;
  controller ctrl(config, disk, memory, cpu, rng);
  for (block_id id = 0; id < 32; ++id) {
    ctrl.write(id, std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(
                                                    id)));
  }
  for (block_id id = 0; id < 32; ++id) {
    EXPECT_EQ(ctrl.read(id)[0], static_cast<std::uint8_t>(id));
  }
  EXPECT_GT(ctrl.stats().periods, 2u);
}

TEST(EdgeCases, MemoryAsLargeAsDatasetIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(92);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 128;  // n/2 >= N: storage pointless
  config.payload_bytes = 8;
  EXPECT_THROW(controller(config, disk, memory, cpu, rng),
               contract_error);
}

TEST(EdgeCases, RequestOutsideUniverseIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(93);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  EXPECT_THROW(ctrl.read(64), contract_error);
}

TEST(EdgeCases, OversizedWriteIsRejected) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(94);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  EXPECT_THROW(ctrl.write(1, std::vector<std::uint8_t>(9, 0)),
               contract_error);
}

TEST(EdgeCases, EmptyBatchIsANoOp) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(95);
  horam_config config;
  config.block_count = 64;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  controller ctrl(config, disk, memory, cpu, rng);
  std::vector<request> empty;
  ctrl.run(empty);
  EXPECT_EQ(ctrl.stats().cycles, 0u);
  EXPECT_EQ(ctrl.now(), 0);
}

TEST(EdgeCases, RepeatedBatchesAccumulateTime) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(96);
  horam_config config;
  config.block_count = 128;
  config.memory_blocks = 16;
  config.payload_bytes = 8;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);
  std::vector<request> batch{request{op_kind::read, 5, 0, {}}};
  ctrl.run(batch);
  const sim::sim_time after_first = ctrl.now();
  ctrl.run(batch);
  EXPECT_GT(ctrl.now(), after_first);
}

}  // namespace
}  // namespace horam
