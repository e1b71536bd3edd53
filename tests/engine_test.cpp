// Tests of the sharded ORAM engine (core/engine.h): PRF routing and id
// translation, shards(1) bit-for-bit equivalence with the historical
// single-controller machine, conformance/replay across shard counts
// {1, 2, 4, 8} and every backend, data-independent padded round shapes,
// per-shard bus-distribution workload independence, cross-shard stats
// aggregation (controller_stats::operator+= / aggregate()), the
// reset_stats() lane-counter regression, and backend_names().
#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/obliviousness.h"
#include "horam.h"
#include "oram/common/block_codec.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam {
namespace {

using oram::block_id;

constexpr std::uint64_t kBlocks = 256;
constexpr std::uint64_t kMemoryBlocks = 64;
constexpr std::size_t kPayload = 16;

client_builder engine_builder(std::uint32_t shards,
                              std::uint64_t seed_salt = 31) {
  return client_builder()
      .blocks(kBlocks)
      .memory_blocks(kMemoryBlocks)
      .payload_bytes(kPayload)
      .shards(shards)
      .seed(test::seed(seed_salt));
}

std::vector<std::uint8_t> tagged(std::uint8_t tag) {
  return std::vector<std::uint8_t>(kPayload, tag);
}

// ------------------------------------------------------------- routing

TEST(EngineRouting, PrfPartitionsTheBlockSpace) {
  client oram = engine_builder(4).build();
  const engine& eng = oram.eng();
  ASSERT_EQ(eng.shard_count(), 4u);

  // Every id routes to exactly one shard, translations are consistent,
  // and the shard_blocks lists partition the global id space.
  std::set<block_id> seen;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    const std::span<const block_id> blocks = eng.shard_blocks(s);
    EXPECT_GT(blocks.size(), 0u) << "shard " << s << " owns no blocks";
    EXPECT_EQ(eng.shard(s).config().block_count, blocks.size());
    for (std::size_t local = 0; local < blocks.size(); ++local) {
      const block_id global = blocks[local];
      EXPECT_EQ(eng.shard_of(global), s);
      EXPECT_EQ(eng.shard_local_id(global), local);
      EXPECT_TRUE(seen.insert(global).second)
          << "block " << global << " owned by two shards";
    }
  }
  EXPECT_EQ(seen.size(), kBlocks);

  // The keyed PRF balances the stripe: no shard is pathologically fat.
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    EXPECT_LT(eng.shard_blocks(s).size(), kBlocks / 2);
  }

  // Routing is a pure function of the config, not of machine state.
  client other = engine_builder(4).build();
  for (block_id id = 0; id < kBlocks; ++id) {
    EXPECT_EQ(other.eng().shard_of(id), eng.shard_of(id));
  }

  // The router reports its id-translation tables as control memory.
  client single = engine_builder(1).build();
  EXPECT_GT(oram.control_memory_bytes(), single.control_memory_bytes());
  EXPECT_THROW((void)eng.shard_of(kBlocks), contract_error);
}

TEST(EngineRouting, SingleShardIsIdentity) {
  client oram = engine_builder(1).build();
  const engine& eng = oram.eng();
  ASSERT_EQ(eng.shard_count(), 1u);
  for (block_id id = 0; id < kBlocks; id += 17) {
    EXPECT_EQ(eng.shard_of(id), 0u);
    EXPECT_EQ(eng.shard_local_id(id), id);
  }
  EXPECT_TRUE(eng.shard_blocks(0).empty());  // identity mapping
}

TEST(EngineRouting, RouteKeyChangesTheStripe) {
  client a = engine_builder(4).build();
  client b = engine_builder(4)
                 .config_tweak([](horam_config& c) {
                   c.route_key_seed ^= 0x5eedULL;
                 })
                 .build();
  std::uint64_t moved = 0;
  for (block_id id = 0; id < kBlocks; ++id) {
    moved += a.eng().shard_of(id) != b.eng().shard_of(id) ? 1 : 0;
  }
  EXPECT_GT(moved, kBlocks / 2);  // ~3/4 expected under a fresh key
}

// -------------------------------------- shards(1) exact pass-through

/// The engine with one shard must reproduce the historical
/// single-controller machine bit for bit: same completion times, same
/// counters, same bus trace, under an identical manually wired machine.
TEST(EngineCompat, SingleShardMatchesBareControllerBitForBit) {
  const std::uint64_t seed = test::seed(33);

  // Manually assembled machine, exactly as the pre-engine facade did.
  sim::block_device storage{sim::hdd_paper()};
  sim::block_device memory{sim::dram_ddr4()};
  const sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng(seed);
  oram::access_trace trace;
  horam_config config;
  config.block_count = kBlocks;
  config.memory_blocks = kMemoryBlocks;
  config.payload_bytes = kPayload;
  std::unique_ptr<oram_backend> backend =
      make_backend(backend_kind::partitioned, config, storage, cpu, rng,
                   &trace, nullptr, &memory);
  controller bare(config, std::move(backend), memory, cpu, rng, &trace);

  client sharded = engine_builder(1, 33).trace(true).build();

  util::pcg64 workload(test::seed(34));
  std::vector<request> stream;
  for (int i = 0; i < 400; ++i) {
    request req;
    req.op = util::bernoulli(workload, 0.3) ? oram::op_kind::write
                                            : oram::op_kind::read;
    req.id = util::uniform_below(workload, kBlocks);
    if (req.op == oram::op_kind::write) {
      req.write_data = tagged(static_cast<std::uint8_t>(i));
    }
    stream.push_back(std::move(req));
  }

  std::vector<request_result> bare_results;
  std::vector<request_result> sharded_results;
  bare.run(stream, &bare_results);
  sharded.run(stream, &sharded_results);

  ASSERT_EQ(bare_results.size(), sharded_results.size());
  for (std::size_t i = 0; i < bare_results.size(); ++i) {
    EXPECT_EQ(bare_results[i].completion_time,
              sharded_results[i].completion_time)
        << "request " << i;
    EXPECT_EQ(bare_results[i].hit, sharded_results[i].hit);
    EXPECT_EQ(bare_results[i].read_data, sharded_results[i].read_data);
  }
  EXPECT_EQ(bare.now(), sharded.now());

  const controller_stats& a = bare.stats();
  const controller_stats& b = sharded.stats();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.real_loads, b.real_loads);
  EXPECT_EQ(a.dummy_loads, b.dummy_loads);
  EXPECT_EQ(a.periods, b.periods);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.io_busy, b.io_busy);
  EXPECT_EQ(a.memory_busy, b.memory_busy);
  EXPECT_EQ(a.cpu_busy, b.cpu_busy);

  const oram::access_trace* sharded_trace = sharded.trace();
  ASSERT_NE(sharded_trace, nullptr);
  ASSERT_EQ(trace.size(), sharded_trace->size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.events()[i].kind, sharded_trace->events()[i].kind)
        << "event " << i;
    EXPECT_EQ(trace.events()[i].a, sharded_trace->events()[i].a);
    EXPECT_EQ(trace.events()[i].b, sharded_trace->events()[i].b);
  }
}

// --------------------------- conformance across the shard/backend grid

struct grid_point {
  std::uint32_t shards;
  backend_kind backend;
};

class EngineConformance : public ::testing::TestWithParam<grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    ShardsByBackend, EngineConformance,
    ::testing::ValuesIn([] {
      std::vector<grid_point> grid;
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        for (const backend_kind kind : all_backend_kinds) {
          grid.push_back(grid_point{shards, kind});
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<grid_point>& info) {
      return std::string(backend_name(info.param.backend)) + "_x" +
             std::to_string(info.param.shards);
    });

// ------------------------------------------- seal keys across codecs

struct key_grid_point {
  backend_kind backend;
  std::uint32_t shards;
  runtime_policy runtime;
};

class EngineSealKeys : public ::testing::TestWithParam<key_grid_point> {};

INSTANTIATE_TEST_SUITE_P(
    BackendShardsRuntime, EngineSealKeys,
    ::testing::ValuesIn([] {
      std::vector<key_grid_point> grid;
      for (const backend_kind kind : all_backend_kinds) {
        for (const std::uint32_t shards : {1u, 4u}) {
          for (const runtime_policy runtime : all_runtime_policies) {
            grid.push_back(key_grid_point{kind, shards, runtime});
          }
        }
      }
      return grid;
    }()),
    [](const ::testing::TestParamInfo<key_grid_point>& info) {
      return std::string(backend_name(info.param.backend)) + "_x" +
             std::to_string(info.param.shards) + "_" +
             std::string(runtime_policy_name(info.param.runtime));
    });

/// Every sealer starts its nonce counter at 0, so two codecs of one
/// engine under the same key would encrypt different records with the
/// same ChaCha20 keystream. No two sealing codecs may share a key, in
/// any shard, backend or runtime.
TEST_P(EngineSealKeys, NoTwoCodecsShareSealKeys) {
  oram::detail::codec_key_log log;
  client oram = engine_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .runtime(GetParam().runtime)
                    .seal(true)
                    .build();
  oram.write(1, tagged(1));
  const std::vector<std::uint64_t>& keys = log.fingerprints();
  // At least the controller's memory tree and one backend store each.
  ASSERT_GE(keys.size(), 2u * GetParam().shards);
  const std::set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size())
      << keys.size() - distinct.size() << " codecs reuse another's keys";
}

/// The tree backends' next-leaf PRF is keyed per shard under its own
/// derivation label: two shards sharing a key would place a block id's
/// leaves identically in both, so no two shards may share one.
class EngineLeafKeys : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    TreeBackends, EngineLeafKeys,
    ::testing::Values(backend_kind::path, backend_kind::ring),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

TEST_P(EngineLeafKeys, NoTwoShardsShareLeafPrfKeys) {
  client oram = engine_builder(4).backend(GetParam()).seal(true).build();
  std::set<std::uint64_t> keys;
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    const oram_backend& backend = oram.eng().shard(s).backend();
    if (const auto* path = dynamic_cast<const oram::path_backend*>(&backend)) {
      keys.insert(path->next_leaf().key_fingerprint());
    } else if (const auto* ring =
                   dynamic_cast<const oram::ring_backend*>(&backend)) {
      keys.insert(ring->next_leaf().key_fingerprint());
    }
  }
  EXPECT_EQ(keys.size(), oram.eng().shard_count())
      << "two shards derive the same leaf-PRF key";
}

/// Differential replay against a std::map oracle: payload correctness
/// must survive routing, padding and per-shard shuffle periods.
TEST_P(EngineConformance, ShadowMapReplay) {
  client oram = engine_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .build();
  std::map<block_id, std::vector<std::uint8_t>> shadow;
  util::pcg64 driver(test::seed(35 + GetParam().shards));
  // Single-op rounds cost a full padded round per shard (that is the
  // point), so scale the step count down as the grid widens to keep
  // sanitizer runs affordable; shard periods are short (memory splits),
  // so even 75 steps cross several shuffle periods everywhere.
  const int steps = 600 / static_cast<int>(2 * GetParam().shards);
  for (int step = 0; step < steps; ++step) {
    const block_id id = util::uniform_below(driver, kBlocks);
    if (util::bernoulli(driver, 0.4)) {
      const auto data = tagged(static_cast<std::uint8_t>(step));
      oram.write(id, data);
      shadow[id] = data;
    } else {
      const auto expected = shadow.contains(id)
                                ? shadow[id]
                                : std::vector<std::uint8_t>(kPayload, 0);
      ASSERT_EQ(oram.read(id), expected)
          << "step " << step << " id " << id;
    }
  }
  for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
    ASSERT_NO_THROW(oram.eng().shard(s).backend().check_consistency())
        << "shard " << s;
    EXPECT_GT(oram.eng().shard(s).stats().periods, 0u) << "shard " << s;
  }
}

/// The batch and incremental APIs agree with the oracle too (routing
/// survives the submit()/drain() path and results come back in
/// submission order).
TEST_P(EngineConformance, SubmitDrainKeepsSubmissionOrder) {
  client oram = engine_builder(GetParam().shards)
                    .backend(GetParam().backend)
                    .build();
  // Tag every block, then read them all back through one drain.
  for (block_id id = 0; id < 64; ++id) {
    oram.write(id, tagged(static_cast<std::uint8_t>(id)));
  }
  std::vector<request> reads(64);
  for (block_id id = 0; id < 64; ++id) {
    reads[id].op = oram::op_kind::read;
    reads[id].id = 63 - id;  // reversed, to catch order bugs
  }
  oram.submit(reads);
  EXPECT_EQ(oram.pending(), 64u);
  std::vector<request_result> results;
  oram.drain(&results);
  ASSERT_EQ(results.size(), 64u);
  for (block_id id = 0; id < 64; ++id) {
    EXPECT_EQ(results[id].read_data,
              tagged(static_cast<std::uint8_t>(63 - id)))
        << "result " << id;
  }
  EXPECT_EQ(oram.pending(), 0u);
}

// ------------------------------------------- padded round obliviousness

/// Drives one sharded client with a workload and returns its round log.
std::deque<std::vector<std::uint32_t>> round_shape_for(
    client& oram, bool hotspot, std::uint64_t seed) {
  util::pcg64 gen(seed);
  std::vector<request> stream(600);
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = hotspot ? util::uniform_below(gen, kBlocks / 16)
                     : util::uniform_below(gen, kBlocks);
  }
  oram.run(stream);
  return oram.eng().round_log();
}

TEST(EngineObliviousness, RoundShapesAreWorkloadIndependent) {
  // Two identically configured 4-shard machines, two very different
  // workloads (a 1/16th hotspot vs a uniform sweep) of the same length:
  // every round executes exactly round_cap() slots on every shard, so
  // the per-round bus shape carries no bucket-size information. (The
  // *number* of rounds is trace length, which — like the hit-rate-
  // dependent trace length of the cacheable interface itself — is the
  // one quantity allowed to vary.)
  client a = engine_builder(4, 36).build();
  client b = engine_builder(4, 36).build();
  const auto shape_a = round_shape_for(a, /*hotspot=*/true, test::seed(37));
  const auto shape_b = round_shape_for(b, /*hotspot=*/false,
                                       test::seed(38));
  const std::uint32_t cap = a.eng().round_cap();
  ASSERT_GT(cap, 0u);
  EXPECT_EQ(b.eng().round_cap(), cap);

  ASSERT_GT(shape_a.size(), 0u);
  ASSERT_GT(shape_b.size(), 0u);
  for (const auto* log : {&shape_a, &shape_b}) {
    for (std::size_t round = 0; round < log->size(); ++round) {
      ASSERT_EQ((*log)[round].size(), 4u);
      for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ((*log)[round][s], cap)
            << "round " << round << " shard " << s;
      }
    }
  }
}

TEST(EngineObliviousness, RoundCapIsConfigurableAndPublic) {
  // The cap derives from the scheduler geometry by default and can be
  // pinned explicitly; the scheduler hands the engine shard_count * cap
  // requests per pump round.
  client pinned = engine_builder(4)
                      .config_tweak([](horam_config& c) {
                        c.shard_round_cap = 10;
                      })
                      .build();
  EXPECT_EQ(pinned.eng().round_cap(), 10u);
  EXPECT_EQ(pinned.eng().round_budget(), 40u);

  client derived = engine_builder(4).build();
  EXPECT_GT(derived.eng().round_cap(), 0u);
  EXPECT_EQ(derived.eng().round_budget(),
            4u * derived.eng().round_cap());
}

/// Per-shard storage position stream of one traced run.
std::vector<std::uint64_t> shard_positions(const client& oram,
                                           std::uint32_t shard) {
  const oram::access_trace* trace = oram.eng().shard_trace(shard);
  EXPECT_NE(trace, nullptr);
  return analysis::storage_read_positions(*trace);
}

TEST(EngineObliviousness, PerShardPositionStreamsAreWorkloadIndependent) {
  // Same two-workload experiment, now auditing each shard's observable
  // storage positions: the streams must be draws from one distribution
  // (two-sample KS + chi-square homogeneity) even though the workloads
  // have completely different shard skews.
  client a = engine_builder(4, 39).trace(true).build();
  client b = engine_builder(4, 39).trace(true).build();
  const auto drive = [](client& oram, bool hotspot, std::uint64_t seed) {
    util::pcg64 gen(seed);
    std::vector<request> stream(2400);
    for (request& req : stream) {
      req.op = oram::op_kind::read;
      req.id = hotspot ? util::uniform_below(gen, kBlocks / 16)
                       : util::uniform_below(gen, kBlocks);
    }
    oram.run(stream);
  };
  drive(a, /*hotspot=*/true, test::seed(40));
  drive(b, /*hotspot=*/false, test::seed(41));

  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::vector<std::uint64_t> pos_a = shard_positions(a, s);
    const std::vector<std::uint64_t> pos_b = shard_positions(b, s);
    ASSERT_GT(pos_a.size(), 100u) << "shard " << s;
    ASSERT_GT(pos_b.size(), 100u) << "shard " << s;
    const storage::partition_geometry& geometry =
        a.eng().shard(s).storage().geometry();
    const std::uint64_t universe =
        geometry.partition_count * geometry.slots_per_partition();
    const analysis::equality_report report =
        analysis::audit_distribution_equality(pos_a, pos_b, universe);
    EXPECT_TRUE(report.passed())
        << "shard " << s << ": ks " << report.ks << " (<= "
        << report.ks_threshold << "), chi2 " << report.chi_square
        << " (<= " << report.chi_threshold << ")";
  }
}

// ------------------------------------------------- stats & aggregation

TEST(EngineStats, ControllerStatsAccumulate) {
  controller_stats a;
  a.requests = 10;
  a.hits = 6;
  a.misses = 4;
  a.cycles = 12;
  a.io_busy = 100;
  a.total_time = 500;
  controller_stats b;
  b.requests = 5;
  b.hits = 1;
  b.misses = 4;
  b.cycles = 7;
  b.io_busy = 50;
  b.total_time = 300;

  controller_stats sum = a;
  sum += b;
  EXPECT_EQ(sum.requests, 15u);
  EXPECT_EQ(sum.hits, 7u);
  EXPECT_EQ(sum.misses, 8u);
  EXPECT_EQ(sum.cycles, 19u);
  EXPECT_EQ(sum.io_busy, 150);
  EXPECT_EQ(sum.total_time, 800);

  const controller_stats parts[] = {a, b};
  const controller_stats agg = aggregate(parts);
  EXPECT_EQ(agg.requests, sum.requests);
  EXPECT_EQ(agg.cycles, sum.cycles);
  EXPECT_EQ(agg.io_busy, sum.io_busy);
}

TEST(EngineStats, AggregateExcludesPaddingAndSumsShards) {
  client oram = engine_builder(4, 42).build();
  util::pcg64 gen(test::seed(43));
  std::vector<request> stream(200);
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = util::uniform_below(gen, kBlocks);
  }
  oram.run(stream);

  const engine& eng = oram.eng();
  const engine_stats& router = eng.router_stats();
  EXPECT_EQ(router.real_requests, 200u);
  EXPECT_GT(router.pad_requests, 0u);  // skewed buckets force padding
  EXPECT_EQ(router.pad_hits + router.pad_misses, router.pad_requests);

  // Application-level request counters; raw resource counters.
  const controller_stats& total = oram.stats();
  EXPECT_EQ(total.requests, 200u);
  EXPECT_EQ(total.hits + total.misses, 200u);
  std::uint64_t cycles = 0;
  std::uint64_t raw_requests = 0;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    cycles += eng.shard(s).stats().cycles;
    raw_requests += eng.shard(s).stats().requests;
  }
  EXPECT_EQ(total.cycles, cycles);
  EXPECT_EQ(raw_requests, router.real_requests + router.pad_requests);

  // The wall clock is the parallel-lane window, not the lane-time sum.
  sim::sim_time lane_time = 0;
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    lane_time += eng.shard(s).stats().total_time;
  }
  EXPECT_EQ(total.total_time, oram.now());
  EXPECT_LT(total.total_time, lane_time);
}

/// Satellite regression: reset_stats() must clear every lane counter —
/// every controller_stats field on every shard, the router counters,
/// the round log and both device lanes.
TEST(EngineStats, ResetStatsClearsEveryLaneCounter) {
  for (const bool coalescing : {false, true}) {
  for (const std::uint32_t shards : {1u, 4u}) {
    client oram = engine_builder(shards, 44).coalescing(coalescing).build();
    util::pcg64 gen(test::seed(45));
    std::vector<request> stream(150);
    for (request& req : stream) {
      req.op = oram::op_kind::read;
      // Duplicates ensure the coalescer counters go nonzero when on.
      req.id = util::uniform_below(gen, kBlocks / 8);
    }
    oram.run(stream);
    ASSERT_GT(oram.stats().requests, 0u);
    if (coalescing) {
      ASSERT_GT(oram.eng().router_stats().coalesced_requests, 0u);
    }

    oram.reset_stats();

    const auto expect_zero = [&](const controller_stats& s,
                                 const std::string& which) {
      EXPECT_EQ(s.requests, 0u) << which;
      EXPECT_EQ(s.hits, 0u) << which;
      EXPECT_EQ(s.misses, 0u) << which;
      EXPECT_EQ(s.cycles, 0u) << which;
      EXPECT_EQ(s.real_loads, 0u) << which;
      EXPECT_EQ(s.dummy_loads, 0u) << which;
      EXPECT_EQ(s.dummy_path_accesses, 0u) << which;
      EXPECT_EQ(s.periods, 0u) << which;
      EXPECT_EQ(s.access_time, 0) << which;
      EXPECT_EQ(s.shuffle_time, 0) << which;
      EXPECT_EQ(s.total_time, 0) << which;
      EXPECT_EQ(s.io_busy, 0) << which;
      EXPECT_EQ(s.memory_busy, 0) << which;
      EXPECT_EQ(s.cpu_busy, 0) << which;
      EXPECT_EQ(s.io_load_time, 0) << which;
      EXPECT_EQ(s.shuffle_device_round_trips, 0u) << which;
    };
    expect_zero(oram.stats(), "aggregate, " + std::to_string(shards));
    for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
      const std::string which =
          "shard " + std::to_string(s) + "/" + std::to_string(shards);
      expect_zero(oram.eng().shard(s).stats(), which);
      EXPECT_EQ(oram.eng().shard_storage(s).stats().total_ops(), 0u)
          << which;
      EXPECT_EQ(oram.eng().shard_memory(s).stats().total_ops(), 0u)
          << which;
      // round_trips is not part of total_ops(): check it explicitly on
      // both device lanes of every shard.
      EXPECT_EQ(oram.eng().shard_storage(s).stats().round_trips, 0u)
          << which;
      EXPECT_EQ(oram.eng().shard_memory(s).stats().round_trips, 0u)
          << which;
    }
    EXPECT_EQ(oram.eng().router_stats().rounds, 0u);
    EXPECT_EQ(oram.eng().router_stats().pad_requests, 0u);
    EXPECT_EQ(oram.eng().router_stats().physical_accesses, 0u);
    EXPECT_EQ(oram.eng().router_stats().coalesced_requests, 0u);
    EXPECT_TRUE(oram.eng().round_log().empty());

    // The next window measures fresh traffic from the reset epoch.
    oram.run(stream);
    EXPECT_EQ(oram.stats().requests, stream.size());
    EXPECT_GT(oram.stats().total_time, 0);
  }
  }
}

/// The online/shuffle round-trip split: a shard's
/// shuffle_device_round_trips is the shuffle machinery's share of that
/// lane's device round trips, so online (total minus shuffle) plus the
/// shuffle share must reconstruct the device counter — per lane and
/// through the aggregate's operator+=.
TEST(EngineStats, RoundTripSplitSumsToDeviceTotal) {
  for (const char* backend : {"path", "hier"}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      client oram = engine_builder(shards, 47).backend(backend).build();
      util::pcg64 gen(test::seed(48));
      std::vector<request> stream(400);
      for (request& req : stream) {
        req.op = oram::op_kind::read;
        req.id = util::uniform_below(gen, kBlocks);
      }
      oram.run(stream);

      std::uint64_t device_total = 0;
      std::uint64_t shuffle_total = 0;
      for (std::uint32_t s = 0; s < oram.eng().shard_count(); ++s) {
        const std::string which = std::string(backend) + ", shard " +
                                  std::to_string(s) + "/" +
                                  std::to_string(shards);
        const std::uint64_t lane =
            oram.eng().shard_storage(s).stats().round_trips;
        const std::uint64_t shuffle =
            oram.eng().shard(s).stats().shuffle_device_round_trips;
        EXPECT_LE(shuffle, lane) << which;
        device_total += lane;
        shuffle_total += shuffle;
      }
      EXPECT_EQ(oram.stats().shuffle_device_round_trips, shuffle_total);
      // Enough random traffic that both halves of the split are live:
      // shuffles fired, and the access rounds touched the device.
      EXPECT_GT(shuffle_total, 0u) << backend;
      EXPECT_GT(device_total, shuffle_total) << backend;
    }
  }
}

// ----------------------------------------------- scaling & performance

TEST(EngineScaling, FourShardsBeatOneOnBackloggedBatches) {
  // Deterministic virtual-time speedup: four parallel device lanes must
  // finish a deep uniform batch well faster than one (this is the
  // engine's whole reason to exist; the bench sweeps it wider).
  std::vector<request> stream(600);
  util::pcg64 gen(test::seed(46));
  for (request& req : stream) {
    req.op = oram::op_kind::read;
    req.id = util::uniform_below(gen, kBlocks);
  }

  client one = engine_builder(1, 47).build();
  client four = engine_builder(4, 47).build();
  one.run(stream);
  four.run(stream);
  EXPECT_LT(four.stats().total_time, one.stats().total_time);
}

// ------------------------------------------------------- backend names

TEST(BackendNames, CanonicalListRoundTrips) {
  const std::span<const std::string_view> names = backend_names();
  ASSERT_EQ(names.size(), std::size(all_backend_kinds));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(backend_by_name(names[i]), all_backend_kinds[i]);
    EXPECT_EQ(backend_name(all_backend_kinds[i]), names[i]);
  }
  // Aliases still parse; junk still throws.
  EXPECT_EQ(backend_by_name("horam"), backend_kind::partitioned);
  EXPECT_EQ(backend_by_name("path-oram"), backend_kind::path);
  EXPECT_THROW((void)backend_by_name("florb"), contract_error);
}

// -------------------------------------------------- builder diagnostics

TEST(EngineBuilder, NamesBadShardSettings) {
  try {
    (void)engine_builder(0).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("shards()"), std::string::npos)
        << e.what();
  }
  try {
    // 64 memory blocks / 16 shards = 4 < one bucket pair (8).
    (void)engine_builder(16).build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("shards()"), std::string::npos)
        << e.what();
  }
}

TEST(EngineBuilder, NamesUnknownBackend) {
  try {
    (void)engine_builder(1).backend("florb").build();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("backend()"), std::string::npos)
        << e.what();
  }
  // The named setter accepts every canonical name.
  for (const std::string_view name : backend_names()) {
    EXPECT_NO_THROW((void)engine_builder(1).backend(name).build());
  }
}

}  // namespace
}  // namespace horam
