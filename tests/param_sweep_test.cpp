// Parameterised property sweeps across the dimensions the rest of the
// suite holds fixed: Path ORAM bucket size Z and payload size, the sqrt
// and partition backends over block count x memory size, Melbourne
// quotas, device profile properties, and end-to-end H-ORAM bucket-size
// variation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/controller.h"
#include "horam.h"
#include "oram/path/path_oram.h"
#include "shuffle/melbourne.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;
using oram::op_kind;

// ------------------------------------------- path ORAM: Z and payload

class PathOramZSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, PathOramZSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u, 8u),
                       ::testing::Values(std::size_t{8},
                                         std::size_t{64},
                                         std::size_t{256})));

TEST_P(PathOramZSweep, DifferentialCorrectnessAndStashBound) {
  const auto [z, payload_bytes] = GetParam();
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(1000 + z);

  oram::path_oram_config config;
  config.leaf_count = 64;
  config.bucket_size = z;
  config.payload_bytes = payload_bytes;
  config.id_universe = 256;
  config.seal = (z % 2) == 0;  // exercise both codec modes
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);

  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(2000 + z);
  // Keep the working set well under capacity for small Z.
  const std::uint64_t universe = std::min<std::uint64_t>(
      256, oram.capacity_blocks() / 2);
  for (int step = 0; step < 1200; ++step) {
    const block_id id = util::uniform_below(driver, universe);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step);
      oram.access(op_kind::write, id,
                  std::vector<std::uint8_t>(payload_bytes, tag), {});
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      std::vector<std::uint8_t> out(payload_bytes);
      oram.access(op_kind::read, id, {}, out);
      ASSERT_EQ(out[0], shadow[id])
          << "Z=" << z << " payload=" << payload_bytes << " step "
          << step;
    }
  }
  // Stash bound degrades as Z shrinks; Z=2 needs the loosest bound.
  const std::size_t bound = z >= 4 ? 64 : 160;
  EXPECT_LT(oram.stash_ref().peak_size(), bound) << "Z=" << z;
}

// ------------------------- sqrt and partition backend geometry sweeps

/// Drives `kind` behind the controller with a shadow map over n blocks,
/// then checks the slot-ORAM invariant on the trace: no storage slot is
/// read twice before a write sweep rewrites it (a repeat would
/// correlate with a cache hit).
void check_slot_backend_geometry(backend_kind kind, std::uint64_t n,
                                 std::uint64_t memory_blocks) {
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(3000 + n + memory_blocks);
  oram::access_trace trace;

  horam_config config;
  config.block_count = n;
  config.memory_blocks = memory_blocks;  // period: memory_blocks / 2 loads
  config.payload_bytes = 16;
  config.seal = false;
  controller ctrl(config,
                  make_backend(kind, config, disk, cpu, rng, &trace,
                               nullptr),
                  memory, cpu, rng, &trace);

  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(4000 + n);
  for (int step = 0; step < 600; ++step) {
    const block_id id = util::uniform_below(driver, n);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step);
      ctrl.write(id, std::vector<std::uint8_t>(16, tag));
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      ASSERT_EQ(ctrl.read(id)[0], shadow[id])
          << "n=" << n << " memory=" << memory_blocks;
    }
  }
  EXPECT_GT(ctrl.stats().periods, 0u);
  EXPECT_GT(ctrl.backend().stats().partitions_shuffled, 0u);
  EXPECT_EQ(ctrl.backend().stats().exhausted_dummy_loads, 0u);
  ctrl.backend().check_consistency();

  std::set<std::uint64_t> slots;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::storage_write_sweep) {
      slots.erase(slots.lower_bound(event.a),
                  slots.lower_bound(event.a + event.b));
    } else if (event.kind == oram::event_kind::storage_read_slot) {
      ASSERT_TRUE(slots.insert(event.a).second)
          << "slot " << event.a << " read twice between rewrites";
    }
  }
}

class SqrtGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Geometries, SqrtGeometry,
                         ::testing::Combine(::testing::Values(64u, 100u,
                                                              256u),
                                            ::testing::Values(8u, 16u,
                                                              32u)));

TEST_P(SqrtGeometry, CorrectAcrossBlockAndMemorySizes) {
  const auto [n, memory_blocks] = GetParam();
  check_slot_backend_geometry(backend_kind::sqrt, n, memory_blocks);
}

class PartitionGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Geometries, PartitionGeometry,
                         ::testing::Combine(::testing::Values(64u, 100u,
                                                              256u),
                                            ::testing::Values(8u, 16u,
                                                              32u)));

TEST_P(PartitionGeometry, CorrectAcrossBlockAndMemorySizes) {
  const auto [n, memory_blocks] = GetParam();
  check_slot_backend_geometry(backend_kind::partition, n, memory_blocks);
}

// -------------------------------------------------- melbourne quotas

class MelbourneQuota : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Quotas, MelbourneQuota,
                         ::testing::Values(4, 6, 10, 16));

TEST_P(MelbourneQuota, ShuffleSucceedsAcrossQuotas) {
  const std::uint64_t quota = GetParam();
  constexpr std::uint64_t n = 128;
  sim::block_device device(sim::dram_ddr4());
  const shuffle::melbourne_config config{.message_quota = quota,
                                         .max_retries = 128};
  storage::block_store input(device, 0, n, 16, 16);
  storage::block_store scratch(
      device, n * 16, shuffle::melbourne_scratch_records(n, config), 16,
      16);
  storage::block_store output(
      device,
      (n + shuffle::melbourne_scratch_records(n, config)) * 16, n, 16,
      16);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> record(16,
                                     static_cast<std::uint8_t>(i));
    input.write(i, record);
  }
  util::pcg64 rng(5000 + quota);
  const auto result =
      shuffle::melbourne_shuffle(input, scratch, output, rng, config);
  ASSERT_TRUE(shuffle::is_permutation(result.pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(output.peek(result.pi[i])[0],
              static_cast<std::uint8_t>(i));
  }
  // Smaller quotas retry more; all must eventually succeed.
  if (quota >= 10) {
    EXPECT_EQ(result.stats.retries, 0u);
  }
}

// ------------------------------------------------ device properties

class DeviceProfiles
    : public ::testing::TestWithParam<sim::device_profile> {};

INSTANTIATE_TEST_SUITE_P(All, DeviceProfiles,
                         ::testing::Values(sim::hdd_paper(),
                                           sim::hdd_7200_raw(),
                                           sim::ssd_sata(), sim::nvme(),
                                           sim::dram_ddr4()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST_P(DeviceProfiles, SequentialNeverSlowerThanRandom) {
  sim::block_device random_device(GetParam());
  sim::block_device seq_device(GetParam());
  sim::sim_time random_total = 0;
  sim::sim_time seq_total = 0;
  for (int i = 0; i < 64; ++i) {
    random_total += random_device.read(
        static_cast<std::uint64_t>(i) * 1000003 * 4096, 4096);
    seq_total +=
        seq_device.read(static_cast<std::uint64_t>(i) * 4096, 4096);
  }
  EXPECT_LE(seq_total, random_total);
}

TEST_P(DeviceProfiles, CostScalesWithSize) {
  sim::block_device a(GetParam());
  sim::block_device b(GetParam());
  EXPECT_LT(a.read(0, 4096), b.read(0, 1 << 20));
}

// --------------------------------------- H-ORAM bucket-size variation

class HoramZSweep : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(BucketSizes, HoramZSweep,
                         ::testing::Values(2u, 4u, 8u));

TEST_P(HoramZSweep, EndToEndCorrectness) {
  const std::uint32_t z = GetParam();
  sim::block_device disk(sim::hdd_paper());
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(6000 + z);

  horam_config config;
  config.block_count = 256;
  config.memory_blocks = 64;
  config.bucket_size = z;
  config.payload_bytes = 16;
  config.seal = false;
  controller ctrl(config, disk, memory, cpu, rng);

  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(7000 + z);
  for (int step = 0; step < 800; ++step) {
    const block_id id = util::uniform_below(driver, 256);
    if (util::bernoulli(driver, 0.4)) {
      const auto tag = static_cast<std::uint8_t>(step);
      ctrl.write(id, std::vector<std::uint8_t>(16, tag));
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      ASSERT_EQ(ctrl.read(id)[0], shadow[id]) << "Z=" << z;
    }
  }
  EXPECT_GT(ctrl.stats().periods, 0u);
}

}  // namespace
}  // namespace horam
