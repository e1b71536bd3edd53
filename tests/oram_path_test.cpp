// Tests for the Path ORAM implementation: functional correctness
// against a shadow map, stash behaviour, obliviousness of the bus
// pattern, eviction and reset, bulk initialisation, integrity of the
// stored records, golden digests of the store images, and the memory/
// storage level split of the tree-top-cache baseline.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>

#include "analysis/pattern_audit.h"
#include "crypto/siphash.h"
#include "lane_widths.h"
#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace horam::oram {
namespace {

struct fixture {
  sim::block_device memory{sim::dram_ddr4()};
  sim::block_device disk{sim::hdd_paper()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{99};
  access_trace trace;

  path_oram_config config(std::uint64_t leaves,
                          std::uint32_t memory_levels =
                              std::numeric_limits<std::uint32_t>::max()) {
    path_oram_config c;
    c.leaf_count = leaves;
    c.bucket_size = 4;
    c.payload_bytes = 16;
    c.id_universe = 1024;
    c.memory_levels = memory_levels;
    c.seal = true;
    return c;
  }
};

std::vector<std::uint8_t> payload_of(std::uint8_t tag) {
  return std::vector<std::uint8_t>(16, tag);
}

TEST(PathOram, Geometry) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  EXPECT_EQ(oram.level_count(), 7u);           // log2(64) + 1
  EXPECT_EQ(oram.bucket_count(), 127u);        // 2*64 - 1
  EXPECT_EQ(oram.capacity_blocks(), 508u);     // Z = 4
  EXPECT_EQ(oram.resident_blocks(), 0u);
}

TEST(PathOram, RejectsNonPowerOfTwoLeaves) {
  fixture fx;
  EXPECT_THROW(path_oram(fx.config(48), fx.memory, nullptr, fx.cpu,
                         fx.rng, nullptr),
               contract_error);
}

TEST(PathOram, WriteThenRead) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  const auto data = payload_of(0x42);
  oram.access(op_kind::write, 7, data, {});
  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 7, {}, out);
  EXPECT_EQ(out, data);
}

TEST(PathOram, UnwrittenBlocksReadAsZeros) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::vector<std::uint8_t> out(16, 0xff);
  oram.access(op_kind::read, 3, {}, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
  EXPECT_TRUE(oram.contains(3));  // materialised by the touch
}

TEST(PathOram, ShadowMapDifferentialTest) {
  // Random reads/writes against a std::map shadow; every read must
  // return the latest write.
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(7);
  for (int step = 0; step < 3000; ++step) {
    const block_id id = util::uniform_below(driver, 200);
    if (util::bernoulli(driver, 0.4)) {
      auto data = payload_of(static_cast<std::uint8_t>(step));
      data[1] = static_cast<std::uint8_t>(id);
      oram.access(op_kind::write, id, data, {});
      shadow[id] = data;
    } else {
      std::vector<std::uint8_t> out(16);
      oram.access(op_kind::read, id, {}, out);
      const auto it = shadow.find(id);
      const std::vector<std::uint8_t> expected =
          it != shadow.end() ? it->second : std::vector<std::uint8_t>(16, 0);
      ASSERT_EQ(out, expected) << "step " << step << " id " << id;
    }
  }
}

TEST(PathOram, StashStaysBounded) {
  // Standard Path ORAM property: with Z = 4 the stash stays small.
  fixture fx;
  path_oram oram(fx.config(128), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  util::pcg64 driver(8);
  for (int step = 0; step < 5000; ++step) {
    oram.access(op_kind::write, util::uniform_below(driver, 256),
                payload_of(1), {});
  }
  EXPECT_LT(oram.stash_ref().peak_size(), 64u);
}

TEST(PathOram, RepeatedAccessNeverRepeatsLeaf) {
  // Remap-before-read: consecutive accesses to the same block follow
  // independently drawn paths.
  fixture fx;
  path_oram oram(fx.config(256), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  oram.access(op_kind::write, 1, payload_of(1), {});
  fx.trace.clear();
  std::vector<leaf_id> leaves;
  for (int i = 0; i < 200; ++i) {
    oram.access(op_kind::read, 1, {}, {});
  }
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::memory_path_access) {
      leaves.push_back(event.a);
    }
  }
  ASSERT_EQ(leaves.size(), 200u);
  // With 256 leaves, 200 draws hitting a fixed leaf every time has
  // probability ~(1/256)^199; count distinct values instead.
  std::set<leaf_id> distinct(leaves.begin(), leaves.end());
  EXPECT_GT(distinct.size(), 100u);
}

TEST(PathOram, DummyAccessIndistinguishableShape) {
  // Dummy and real accesses emit the same event shape: one path access
  // plus level_count bucket reads and writes.
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  oram.access(op_kind::write, 5, payload_of(5), {});
  const auto shape_of = [&](auto&& action) {
    fx.trace.clear();
    action();
    std::map<event_kind, int> shape;
    for (const trace_event& event : fx.trace.events()) {
      ++shape[event.kind];
    }
    return shape;
  };
  const auto real = shape_of([&] {
    oram.access(op_kind::read, 5, {}, {});
  });
  const auto dummy = shape_of([&] { oram.dummy_access(); });
  EXPECT_EQ(real, dummy);
}

TEST(PathOram, LeafDistributionUniform) {
  fixture fx;
  path_oram oram(fx.config(32), fx.memory, nullptr, fx.cpu, fx.rng,
                 &fx.trace);
  for (int i = 0; i < 4000; ++i) {
    oram.dummy_access();
  }
  std::vector<std::uint64_t> counts(32, 0);
  for (const trace_event& event : fx.trace.events()) {
    if (event.kind == event_kind::memory_path_access) {
      ++counts[event.a];
    }
  }
  const double chi2 = analysis::chi_square_uniform(counts);
  EXPECT_LT(chi2, analysis::chi_square_threshold(31));
}

TEST(PathOram, InstallThenAccess) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.install(9, payload_of(0x77));
  EXPECT_TRUE(oram.contains(9));
  EXPECT_EQ(oram.resident_blocks(), 1u);
  std::vector<std::uint8_t> out(16);
  oram.access(op_kind::read, 9, {}, out);
  EXPECT_EQ(out, payload_of(0x77));
  EXPECT_THROW(oram.install(9, payload_of(1)), contract_error);
}

TEST(PathOram, EvictAllReturnsEveryResidentBlock) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  std::unordered_map<block_id, std::vector<std::uint8_t>> expected;
  util::pcg64 driver(9);
  for (int i = 0; i < 100; ++i) {
    const block_id id = util::uniform_below(driver, 500);
    auto data = payload_of(static_cast<std::uint8_t>(i));
    oram.access(op_kind::write, id, data, {});
    expected[id] = data;
  }
  // Park some blocks in the stash via install too.
  oram.install(900, payload_of(0xaa));
  expected[900] = payload_of(0xaa);

  std::vector<evicted_block> evicted;
  oram.evict_all(evicted);
  EXPECT_EQ(evicted.size(), expected.size());
  for (const evicted_block& block : evicted) {
    ASSERT_TRUE(expected.contains(block.id)) << "id " << block.id;
    EXPECT_EQ(block.payload, expected.at(block.id));
  }
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_EQ(oram.stash_ref().size(), 0u);
}

TEST(PathOram, EvictionOrderIsShuffled) {
  // Evicted blocks come out in random order, not insertion order.
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 64; ++id) {
    oram.install(id, payload_of(static_cast<std::uint8_t>(id)));
  }
  std::vector<evicted_block> evicted;
  oram.evict_all(evicted);
  ASSERT_EQ(evicted.size(), 64u);
  bool sorted = true;
  for (std::size_t i = 1; i < evicted.size(); ++i) {
    sorted = sorted && evicted[i - 1].id < evicted[i].id;
  }
  EXPECT_FALSE(sorted);  // probability 1/64! of a false failure
}

TEST(PathOram, ResetClearsState) {
  fixture fx;
  path_oram oram(fx.config(16), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.access(op_kind::write, 2, payload_of(2), {});
  oram.reset();
  EXPECT_EQ(oram.resident_blocks(), 0u);
  EXPECT_FALSE(oram.contains(2));
  std::vector<std::uint8_t> out(16, 1);
  oram.access(op_kind::read, 2, {}, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));  // data gone
}

TEST(PathOram, InitializeFullPlacesEveryBlock) {
  fixture fx;
  path_oram oram(fx.config(64), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  oram.initialize_full(200, [](block_id id, std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(id);
    out[1] = static_cast<std::uint8_t>(id >> 8);
  });
  EXPECT_EQ(oram.resident_blocks(), 200u);
  util::pcg64 driver(10);
  for (int i = 0; i < 100; ++i) {
    const block_id id = util::uniform_below(driver, 200);
    std::vector<std::uint8_t> out(16);
    oram.access(op_kind::read, id, {}, out);
    EXPECT_EQ(out[0], static_cast<std::uint8_t>(id));
    EXPECT_EQ(out[1], static_cast<std::uint8_t>(id >> 8));
  }
}

TEST(PathOram, TamperedTreeRecordDetected) {
  // Integrity: flipping a byte of a record on the accessed path makes
  // the access throw, and it throws before any block of the path has
  // moved into the stash.
  fixture fx;
  detail::path_store_log log;
  path_oram oram(fx.config(4), fx.memory, nullptr, fx.cpu, fx.rng,
                 nullptr);
  for (block_id id = 0; id < 12; ++id) {
    oram.access(op_kind::write, id, payload_of(static_cast<std::uint8_t>(id)),
                {});
  }
  ASSERT_EQ(log.trees().size(), 1u);
  storage::block_store& store = *log.trees()[0].memory;

  // Tamper with the last slot of the leaf bucket on block 0's path, so
  // the root-side buckets of that path decode first. At least one of
  // them must hold a real block, or the stash check below proves
  // nothing.
  const leaf_id leaf = oram.leaf_of(0);
  const std::uint64_t z = 4;
  const std::uint64_t leaf_bucket =
      ((std::uint64_t{1} << (oram.level_count() - 1)) - 1) + leaf;
  const block_codec codec(16, true, oram.config().key_seed);
  bool real_above = false;
  for (std::uint32_t level = 0; level + 1 < oram.level_count(); ++level) {
    const std::uint64_t bucket = ((std::uint64_t{1} << level) - 1) +
                                 (leaf >> (oram.level_count() - 1 - level));
    for (std::uint64_t k = 0; k < z; ++k) {
      const block_id id = codec.decode(store.peek(bucket * z + k), {});
      real_above = real_above || id != dummy_block_id;
    }
  }
  ASSERT_TRUE(real_above);

  std::map<block_id, stash_entry> before;
  for (const auto& [id, entry] : oram.stash_ref()) {
    before.emplace(id, entry);
  }
  store.corrupt(leaf_bucket * z + z - 1, /*byte_offset=*/20, 0x01);
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(oram.access(op_kind::read, 0, {}, out), crypto::crypto_error);

  std::map<block_id, stash_entry> after;
  for (const auto& [id, entry] : oram.stash_ref()) {
    after.emplace(id, entry);
  }
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, entry] : before) {
    const auto it = after.find(id);
    ASSERT_NE(it, after.end()) << "block " << id;
    EXPECT_EQ(it->second.leaf, entry.leaf) << "block " << id;
    EXPECT_EQ(it->second.payload, entry.payload) << "block " << id;
  }
}

TEST(PathOram, TamperedDummyBodyOnThePathDetected) {
  // A path read decrypts only the id of a dummy, yet its MAC still
  // covers the body: flipping a body byte of a dummy slot on the path
  // makes the next access to that leaf throw, before the stash or the
  // position map changes. extract() reads the block's path without
  // remapping it first, so the whole position map must be as it was.
  fixture fx;
  path_oram_config config = fx.config(4);
  config.payload_bytes = 200;  // the body spans keystream blocks 1-3
  detail::path_store_log log;
  path_oram oram(config, fx.memory, nullptr, fx.cpu, fx.rng, nullptr);
  for (block_id id = 0; id < 12; ++id) {
    oram.access(op_kind::write, id, payload_of(static_cast<std::uint8_t>(id)),
                {});
  }
  ASSERT_EQ(log.trees().size(), 1u);
  storage::block_store& store = *log.trees()[0].memory;

  const leaf_id leaf = oram.leaf_of(0);
  const std::uint64_t z = config.bucket_size;
  const block_codec codec(config.payload_bytes, true, config.key_seed);
  std::optional<std::uint64_t> dummy_slot;
  for (std::uint32_t level = 0; level < oram.level_count() && !dummy_slot;
       ++level) {
    const std::uint64_t bucket = ((std::uint64_t{1} << level) - 1) +
                                 (leaf >> (oram.level_count() - 1 - level));
    for (std::uint64_t k = 0; k < z && !dummy_slot; ++k) {
      if (codec.decode(store.peek(bucket * z + k), {}) == dummy_block_id) {
        dummy_slot = bucket * z + k;
      }
    }
  }
  ASSERT_TRUE(dummy_slot.has_value());

  std::map<block_id, stash_entry> before;
  for (const auto& [id, entry] : oram.stash_ref()) {
    before.emplace(id, entry);
  }
  std::vector<leaf_id> leaves_before;
  for (block_id id = 0; id < 12; ++id) {
    leaves_before.push_back(oram.leaf_of(id));
  }
  store.corrupt(*dummy_slot, crypto::seal_nonce_bytes + 8 + 150, 0x10);
  std::vector<std::uint8_t> out(config.payload_bytes);
  EXPECT_THROW(oram.extract(0, out), crypto::crypto_error);

  std::map<block_id, stash_entry> after;
  for (const auto& [id, entry] : oram.stash_ref()) {
    after.emplace(id, entry);
  }
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, entry] : before) {
    const auto it = after.find(id);
    ASSERT_NE(it, after.end()) << "block " << id;
    EXPECT_EQ(it->second.leaf, entry.leaf) << "block " << id;
    EXPECT_EQ(it->second.payload, entry.payload) << "block " << id;
  }
  for (block_id id = 0; id < 12; ++id) {
    ASSERT_TRUE(oram.contains(id)) << "block " << id;
    EXPECT_EQ(oram.leaf_of(id), leaves_before[id]) << "block " << id;
  }
}

// ------------------------------------------------------- golden images

/// SipHash digest of everything a fixed-seed run of the tree writes:
/// the sealed store images after bulk build, accesses, eviction and
/// reset, plus every payload the run reads back. Two memory levels and
/// four storage levels of 1 KiB-payload records, so both lanes and
/// (under `page`) two segment groups are covered.
std::uint64_t golden_digest(storage::storage_layout layout) {
  sim::block_device memory{sim::dram_ddr4()};
  sim::block_device disk{sim::hdd_paper()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng{2019};
  path_oram_config config;
  config.leaf_count = 32;
  config.bucket_size = 4;
  config.payload_bytes = 1024;
  config.id_universe = 256;
  config.memory_levels = 2;
  config.layout = layout;
  config.page_bytes = 16384;
  detail::path_store_log log;
  path_oram oram(config, memory, &disk, cpu, rng, nullptr);

  std::vector<std::uint8_t> transcript;
  const auto append = [&](std::span<const std::uint8_t> bytes) {
    transcript.insert(transcript.end(), bytes.begin(), bytes.end());
  };
  const auto append_images = [&] {
    for (const storage::block_store* store :
         {log.trees()[0].memory, log.trees()[0].io}) {
      for (std::uint64_t slot = 0; slot < store->slot_count(); ++slot) {
        append(store->peek(slot));
      }
    }
  };
  const auto payload = [](std::uint64_t seed) {
    std::vector<std::uint8_t> bytes(1024);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(seed * 131 + i * 7);
    }
    return bytes;
  };

  oram.initialize_full(100, [&](block_id id, std::span<std::uint8_t> out) {
    const auto bytes = payload(id);
    std::copy(bytes.begin(), bytes.end(), out.begin());
  });
  append_images();

  util::pcg64 driver(31);
  std::vector<std::uint8_t> out(1024);
  for (int step = 0; step < 200; ++step) {
    const block_id id = util::uniform_below(driver, 160);
    switch (util::uniform_below(driver, 5)) {
      case 0:
        oram.access(op_kind::write, id, payload(1000 + step), {});
        break;
      case 1:
        oram.access(op_kind::read, id, {}, out);
        append(out);
        break;
      case 2:
        oram.dummy_access();
        break;
      case 3:
        oram.access_rmw(id, [](std::span<std::uint8_t> bytes) { ++bytes[0]; });
        break;
      default:
        if (oram.contains(id)) {
          oram.extract(id, out);
          append(out);
          oram.install(id, out);
        }
        break;
    }
  }
  append_images();

  std::vector<evicted_block> evicted;
  oram.evict_all(evicted);
  for (const evicted_block& block : evicted) {
    for (int i = 0; i < 8; ++i) {
      transcript.push_back(static_cast<std::uint8_t>(block.id >> (8 * i)));
    }
    append(block.payload);
  }
  oram.reset();
  append_images();
  for (std::size_t i = 0; i < 20 && i < evicted.size(); ++i) {
    oram.install(evicted[i].id, evicted[i].payload);
    oram.dummy_access();
  }
  append_images();
  return crypto::siphash24(crypto::siphash_key{}, transcript);
}

// The digests were recorded with one-record-at-a-time sealing; any
// change to the bytes a path write-back, bulk build, eviction or reset
// stores (nonce order, keystream, MAC) changes them. Every kernel width
// must reproduce them.
using PathOramGolden = test::lane_width_test;

TEST_P(PathOramGolden, FlatLayoutImagesMatchRecordedDigest) {
  EXPECT_EQ(golden_digest(storage::storage_layout::flat),
            0x05bd3f2898c7dfeaULL);
}

TEST_P(PathOramGolden, PageLayoutImagesMatchRecordedDigest) {
  EXPECT_EQ(golden_digest(storage::storage_layout::page),
            0x0071cc1f5d2f8756ULL);
}

INSTANTIATE_TEST_SUITE_P(Widths, PathOramGolden, test::lane_widths(),
                         test::lane_width_name);

// ------------------------------------------------- tree-top-cache split

TEST(PathOramSplit, LanesChargeTheRightDevices) {
  fixture fx;
  // 7 levels, top 3 in memory, bottom 4 on disk.
  path_oram oram(fx.config(64, /*memory_levels=*/3), fx.memory, &fx.disk,
                 fx.cpu, fx.rng, nullptr);
  fx.memory.reset_stats();
  fx.disk.reset_stats();
  const cost_split cost = oram.access(op_kind::write, 1, payload_of(1), {});
  EXPECT_GT(cost.memory, 0);
  EXPECT_GT(cost.io, 0);
  EXPECT_GT(cost.cpu, 0);
  // 3 memory buckets + 4 disk buckets, read and written once each.
  EXPECT_EQ(fx.memory.stats().read_ops, 3u);
  EXPECT_EQ(fx.memory.stats().write_ops, 3u);
  EXPECT_EQ(fx.disk.stats().read_ops, 4u);
  EXPECT_EQ(fx.disk.stats().write_ops, 4u);
}

TEST(PathOramSplit, IoDominatesWithHdd) {
  fixture fx;
  path_oram oram(fx.config(64, 3), fx.memory, &fx.disk, fx.cpu, fx.rng,
                 nullptr);
  const cost_split cost = oram.access(op_kind::write, 1, payload_of(1), {});
  EXPECT_GT(cost.io, 10 * cost.memory);
}

TEST(PathOramSplit, NeedsDiskWhenDeeperThanMemory) {
  fixture fx;
  EXPECT_THROW(path_oram(fx.config(64, 3), fx.memory, nullptr, fx.cpu,
                         fx.rng, nullptr),
               contract_error);
}

TEST(PathOramSplit, CorrectnessWithSplit) {
  fixture fx;
  path_oram oram(fx.config(32, 2), fx.memory, &fx.disk, fx.cpu, fx.rng,
                 nullptr);
  std::map<block_id, std::uint8_t> shadow;
  util::pcg64 driver(11);
  for (int step = 0; step < 1000; ++step) {
    const block_id id = util::uniform_below(driver, 100);
    if (util::bernoulli(driver, 0.5)) {
      const auto tag = static_cast<std::uint8_t>(step);
      oram.access(op_kind::write, id, payload_of(tag), {});
      shadow[id] = tag;
    } else if (shadow.contains(id)) {
      std::vector<std::uint8_t> out(16);
      oram.access(op_kind::read, id, {}, out);
      ASSERT_EQ(out[0], shadow[id]) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace horam::oram
