// Tests of the machinery path_backend and ring_backend share
// (oram/common/tree_backend.h): remap on load, the shuffle job's
// install and reverse-lexicographic drain, and the drain budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "horam.h"
#include "test_support.h"

namespace horam {
namespace {

using oram::block_id;
using oram::leaf_id;

constexpr std::size_t kPayload = 16;

/// One tree-backend geometry: the dataset, the cache, and the tree's Z.
struct geometry {
  const char* name;
  std::uint64_t blocks;
  std::uint64_t memory_blocks;
  std::uint32_t path_z;
  std::uint32_t ring_z;
  std::uint32_t ring_s;
  std::uint32_t ring_a;
};

constexpr geometry kPaperRatio{"ratio8", 4096, 512, 4, 16, 25, 20};
constexpr geometry kLeanTree{"ratio4", 2048, 512, 3, 8, 12, 8};

struct rig {
  sim::block_device device{sim::hdd_paper()};
  sim::block_device map_device{sim::dram_ddr4()};
  sim::cpu_model cpu{sim::cpu_aesni()};
  util::pcg64 rng;
  horam_config config;

  rig(const geometry& g, bool seal, std::uint64_t salt)
      : rng(test::seed(salt)) {
    config.block_count = g.blocks;
    config.memory_blocks = g.memory_blocks;
    config.payload_bytes = kPayload;
    config.bucket_size = g.path_z;
    config.ring_bucket_size = g.ring_z;
    config.ring_spare_slots = g.ring_s;
    config.ring_eviction_rate = g.ring_a;
    config.seal = seal;
  }

  std::unique_ptr<oram_backend> make(backend_kind kind,
                                     oram::access_trace* trace = nullptr) {
    return make_backend(kind, config, device, cpu, rng, trace,
                        /*filler=*/nullptr, &map_device);
  }
};

/// The shared accessors of either tree backend.
template <class Fn>
void with_tree_backend(oram_backend& backend, Fn&& fn) {
  if (auto* path = dynamic_cast<oram::path_backend*>(&backend)) {
    fn(*path);
  } else if (auto* ring = dynamic_cast<oram::ring_backend*>(&backend)) {
    fn(*ring);
  } else {
    FAIL() << "not a tree backend: " << backend.name();
  }
}

/// Loads `count` uniformly drawn blocks (dummy when the draw is
/// cached), the controller's cadence with every slot a miss when it
/// can be; returns the hot set.
std::vector<oram::evicted_block> load_period(oram_backend& backend,
                                             std::uint64_t count,
                                             std::uint64_t blocks,
                                             util::random_source& driver) {
  std::vector<oram::evicted_block> hot;
  for (std::uint64_t i = 0; i < count; ++i) {
    const block_id target = util::uniform_below(driver, blocks);
    if (backend.in_storage(target)) {
      oram_backend::load_result load = backend.load_block(target);
      hot.push_back(oram::evicted_block{load.id, std::move(load.payload)});
    } else {
      (void)backend.dummy_load();
    }
  }
  return hot;
}

struct drain_point {
  backend_kind kind;
  geometry geo;
};

class TreeDrainBound : public ::testing::TestWithParam<drain_point> {};

INSTANTIATE_TEST_SUITE_P(
    TreesByGeometry, TreeDrainBound,
    ::testing::Values(drain_point{backend_kind::path, kPaperRatio},
                      drain_point{backend_kind::path, kLeanTree},
                      drain_point{backend_kind::ring, kPaperRatio},
                      drain_point{backend_kind::ring, kLeanTree}),
    [](const ::testing::TestParamInfo<drain_point>& info) {
      return std::string(backend_name(info.param.kind)) + "_" +
             info.param.geo.name;
    });

// Over a long seeded run at the controller's worst cadence (every load
// a miss where it can be), the public drain budget alone always brings
// the stash back to its floor: the conditional tail never fires.
TEST_P(TreeDrainBound, BudgetDrainsTheStashWithoutTheTail) {
  constexpr std::uint64_t kPeriods = 200;
  rig fx(GetParam().geo, /*seal=*/false, 401);
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam().kind);
  util::pcg64 driver(test::seed(403));

  std::uint64_t worst_settled = 0;
  std::uint64_t smallest_budget = ~std::uint64_t{0};
  for (std::uint64_t period = 0; period < kPeriods; ++period) {
    std::vector<oram::evicted_block> hot =
        load_period(*backend, fx.config.period_loads(),
                    fx.config.block_count, driver);
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period(std::move(hot), period, overflow);
    ASSERT_TRUE(overflow.empty());
    with_tree_backend(*backend, [&](const auto& tree) {
      const oram::drain_report& drain = tree.last_drain();
      ASSERT_EQ(drain.accesses, drain.budget)
          << "conditional tail fired in period " << period << " (stash "
          << tree.tree().stash_ref().size() << ")";
      ASSERT_LE(tree.tree().stash_ref().size(), drain.floor);
      ASSERT_LE(drain.settled_at, drain.budget);
      worst_settled = std::max(worst_settled, drain.settled_at);
      smallest_budget = std::min(smallest_budget, drain.budget);
    });
  }
  ASSERT_NO_THROW(backend->check_consistency());
  std::printf("[drain bound] %s %s: stash at floor by drain access %llu "
              "at the latest over %llu periods (smallest budget %llu)\n",
              std::string(backend->name()).c_str(), GetParam().geo.name,
              static_cast<unsigned long long>(worst_settled),
              static_cast<unsigned long long>(kPeriods),
              static_cast<unsigned long long>(smallest_budget));
  RecordProperty("worst_settled_at", static_cast<int>(worst_settled));
}

class TreeRemap : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(
    PathAndRing, TreeRemap,
    ::testing::Values(backend_kind::path, backend_kind::ring),
    [](const ::testing::TestParamInfo<backend_kind>& info) {
      return std::string(backend_name(info.param));
    });

/// The map's level-0 entry of `id`, read without device cost.
template <class Backend>
leaf_id map_entry(const Backend& backend, block_id id) {
  leaf_id found = ~leaf_id{0};
  backend.map().for_each_assigned([&](block_id entry, leaf_id leaf) {
    if (entry == id) {
      found = leaf;
    }
  });
  return found;
}

// The load records the next leaf; the shuffle installs the block at
// exactly that leaf.
TEST_P(TreeRemap, LoadRecordsTheLeafTheInstallUses) {
  rig fx(kLeanTree, /*seal=*/true, 411);
  fx.config.map_entries_per_block = 8;
  fx.config.map_direct_threshold = 8;
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  util::pcg64 driver(test::seed(413));

  for (std::uint64_t period = 0; period < 3; ++period) {
    std::vector<oram::evicted_block> hot =
        load_period(*backend, fx.config.period_loads(),
                    fx.config.block_count, driver);
    ASSERT_FALSE(hot.empty());
    std::map<block_id, leaf_id> recorded;
    with_tree_backend(*backend, [&](const auto& tree) {
      ASSERT_GE(tree.map().level_count(), 2u);
      for (const oram::evicted_block& block : hot) {
        recorded[block.id] = map_entry(tree, block.id);
        EXPECT_EQ(recorded[block.id],
                  tree.next_leaf()(block.id, tree.shuffle_epoch()));
      }
    });
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period(std::move(hot), period, overflow);
    with_tree_backend(*backend, [&](const auto& tree) {
      for (const auto& [id, leaf] : recorded) {
        ASSERT_TRUE(tree.tree().contains(id));
        EXPECT_EQ(tree.tree().leaf_of(id), leaf) << "block " << id;
        EXPECT_EQ(map_entry(tree, id), leaf) << "block " << id;
      }
    });
    ASSERT_NO_THROW(backend->check_consistency());
  }
}

// Between shuffle_begin and the job's end the trace holds only backend
// tree traffic: installs need no map walk, so no map-ORAM path access
// and no memory-lane bucket appears.
TEST_P(TreeRemap, ShuffleWindowHoldsNoMapAccesses) {
  oram::access_trace trace;
  rig fx(kLeanTree, /*seal=*/true, 421);
  fx.config.map_entries_per_block = 8;
  fx.config.map_direct_threshold = 8;
  const std::unique_ptr<oram_backend> backend =
      fx.make(GetParam(), &trace);
  util::pcg64 driver(test::seed(423));
  std::uint64_t tree_leaves = 0;
  with_tree_backend(*backend, [&](const auto& tree) {
    ASSERT_GE(tree.map().level_count(), 2u);
    tree_leaves = tree.tree().config().leaf_count;
  });

  for (std::uint64_t period = 0; period < 3; ++period) {
    std::vector<oram::evicted_block> hot =
        load_period(*backend, fx.config.period_loads(),
                    fx.config.block_count, driver);
    ASSERT_FALSE(hot.empty());
    const std::size_t window = trace.size();
    std::vector<oram::evicted_block> overflow;
    (void)backend->shuffle_period(std::move(hot), period, overflow);
    ASSERT_GT(trace.size(), window + 1);
    EXPECT_EQ(trace.events()[window].kind, oram::event_kind::shuffle_begin);
    std::uint64_t tree_paths = 0;
    for (std::size_t i = window; i < trace.size(); ++i) {
      const oram::trace_event& event = trace.events()[i];
      EXPECT_NE(event.kind, oram::event_kind::memory_bucket_read)
          << "period " << period << " event " << i - window;
      EXPECT_NE(event.kind, oram::event_kind::memory_bucket_write)
          << "period " << period << " event " << i - window;
      if (event.kind == oram::event_kind::memory_path_access) {
        EXPECT_EQ(event.b, tree_leaves)
            << "map ORAM access inside the shuffle window";
        ++tree_paths;
      }
    }
    // Path traces one path access per drain; ring's evictions are
    // range reads of whole paths.
    if (GetParam() == backend_kind::path) {
      with_tree_backend(*backend, [&](const auto& tree) {
        EXPECT_EQ(tree_paths, tree.last_drain().accesses);
      });
    }
  }
}

// The audit covers cached blocks too, also while a job is in flight:
// staged blocks carry the in-flight epoch's leaf, blocks loaded since
// carry the next epoch's.
TEST_P(TreeRemap, AuditChecksCachedBlocksMidShuffle) {
  rig fx(kLeanTree, /*seal=*/true, 431);
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  util::pcg64 driver(test::seed(433));

  std::vector<oram::evicted_block> hot = load_period(
      *backend, fx.config.period_loads(), fx.config.block_count, driver);
  ASSERT_GT(hot.size(), 2u);
  ASSERT_NO_THROW(backend->check_consistency());
  std::unique_ptr<shuffle_job> job = backend->begin_shuffle(hot, 0);
  (void)job->step(1);  // a few installs, then stop
  ASSERT_FALSE(job->done());
  ASSERT_NO_THROW(backend->check_consistency());

  // Serve misses while the job is in flight.
  std::vector<oram::evicted_block> next = load_period(
      *backend, fx.config.period_loads() / 4, fx.config.block_count, driver);
  ASSERT_FALSE(next.empty());
  ASSERT_NO_THROW(backend->check_consistency());
  EXPECT_THROW((void)backend->begin_shuffle(next, 1), contract_error);

  while (!job->done()) {
    (void)job->step(0);
  }
  std::vector<oram::evicted_block> overflow;
  job->finish(overflow);
  job.reset();
  ASSERT_NO_THROW(backend->check_consistency());
  (void)backend->shuffle_period(std::move(next), 1, overflow);
  ASSERT_NO_THROW(backend->check_consistency());
  for (const oram::evicted_block& block : hot) {
    EXPECT_TRUE(backend->in_storage(block.id));
  }
}

// A tree shuffle must receive every cached block: each was given its
// next leaf when loaded, so a partial eviction would strand the rest.
TEST_P(TreeRemap, PartialEvictionTripsContract) {
  rig fx(kLeanTree, /*seal=*/false, 441);
  const std::unique_ptr<oram_backend> backend = fx.make(GetParam());
  (void)backend->load_block(3);
  const oram_backend::load_result load = backend->load_block(5);
  std::vector<oram::evicted_block> partial{
      oram::evicted_block{load.id, load.payload}};
  EXPECT_THROW((void)backend->begin_shuffle(partial, 0), contract_error);
}

// Only the tree backends drain through force_evict(): the controller's
// in-memory cache tree never issues one, whatever the backend.
TEST(TreeDrain, CacheTreeNeverForceEvicts) {
  for (const backend_kind kind :
       {backend_kind::partitioned, backend_kind::path}) {
    client oram = client_builder()
                      .blocks(512)
                      .memory_blocks(64)
                      .payload_bytes(kPayload)
                      .backend(kind)
                      .seed(test::seed(451))
                      .build();
    util::pcg64 driver(test::seed(453));
    for (int step = 0; step < 400; ++step) {
      (void)oram.read(util::uniform_below(driver, 512));
    }
    EXPECT_GT(oram.stats().periods, 2u);
    EXPECT_EQ(oram.ctrl().memory_tree().stats().forced_evictions, 0u)
        << backend_name(kind);
  }
}

}  // namespace
}  // namespace horam
