// Tests for src/shuffle: the permutation check, the in-memory shuffle
// (util::random_permutation) and the Melbourne shuffle (every record
// moved, permutation-independent I/O, I/O volume, quota exhaustion),
// swept over sizes including non-powers of two and degenerate cases.
#include <gtest/gtest.h>

#include <numeric>

#include "shuffle/melbourne.h"
#include "shuffle/shuffle.h"
#include "sim/profiles.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::shuffle {
namespace {

constexpr std::size_t kRecordBytes = 8;

/// Builds n records whose first byte(s) encode their index.
std::vector<std::uint8_t> indexed_records(std::uint64_t n) {
  std::vector<std::uint8_t> records(n * kRecordBytes, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (int b = 0; b < 8; ++b) {
      records[i * kRecordBytes + static_cast<std::uint64_t>(b)] =
          static_cast<std::uint8_t>(i >> (8 * b));
    }
  }
  return records;
}

std::uint64_t record_value(const std::vector<std::uint8_t>& records,
                           std::uint64_t position) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(
             records[position * kRecordBytes + static_cast<std::uint64_t>(b)])
         << (8 * b);
  }
  return v;
}

// ------------------------------------------------------------- helpers

TEST(Permutation, IsPermutationDetectsDefects) {
  EXPECT_TRUE(is_permutation({}));
  EXPECT_TRUE(is_permutation({0}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0}));
  EXPECT_FALSE(is_permutation({0, 2}));
  EXPECT_FALSE(is_permutation({3, 0, 1}));
}

// ------------------------------------------------- in-memory shuffle

// util::random_permutation is what H-ORAM's partition rewrite and the
// path evict run: a permutation of [0, n) at every size, fixed by the
// generator state.
class ShuffleSizes : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, ShuffleSizes,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 33,
                                           64, 100, 127, 128, 255, 500));

TEST_P(ShuffleSizes, RandomPermutationIsPermutation) {
  const std::uint64_t n = GetParam();
  util::pcg64 rng(n);
  util::pcg64 replay(n);
  const permutation pi = util::random_permutation(rng, n);
  ASSERT_TRUE(is_permutation(pi));
  EXPECT_EQ(util::random_permutation(replay, n), pi);
  if (n >= 8) {
    permutation identity(n);
    std::iota(identity.begin(), identity.end(), std::uint64_t{0});
    EXPECT_NE(pi, identity);
  }
}

// --------------------------------------------------- external shuffles

struct external_fixture {
  sim::block_device device{sim::hdd_paper()};
  std::unique_ptr<storage::block_store> input;
  std::unique_ptr<storage::block_store> scratch;
  std::unique_ptr<storage::block_store> output;

  external_fixture(std::uint64_t n, std::uint64_t scratch_records) {
    input = std::make_unique<storage::block_store>(device, 0, n,
                                                   kRecordBytes, 1024);
    scratch = std::make_unique<storage::block_store>(
        device, n * 1024, scratch_records, kRecordBytes, 1024);
    output = std::make_unique<storage::block_store>(
        device, (n + scratch_records) * 1024, n, kRecordBytes, 1024);
    const auto records = indexed_records(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      input->write(i, std::span<const std::uint8_t>(
                          records.data() + i * kRecordBytes, kRecordBytes));
    }
    device.reset_stats();
  }
};

class ExternalShuffleSizes
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, ExternalShuffleSizes,
                         ::testing::Values(1, 2, 5, 16, 50, 64, 100, 256));

TEST_P(ExternalShuffleSizes, MelbourneMovesEveryRecord) {
  const std::uint64_t n = GetParam();
  const melbourne_config config{};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(n + 3);
  const external_shuffle_result result =
      melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  ASSERT_TRUE(is_permutation(result.pi));
  EXPECT_GT(result.io_time, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(record_value(
                  std::vector<std::uint8_t>(fx.output->peek(result.pi[i]).begin(),
                                            fx.output->peek(result.pi[i]).end()),
                  0),
              i);
  }
}

// The device sees the same operations whichever permutation is drawn:
// every message is padded to the quota, so sizes never depend on where
// records go.
TEST_P(ExternalShuffleSizes, MelbourneIoIsIndependentOfThePermutation) {
  const std::uint64_t n = GetParam();
  const melbourne_config config{};
  std::vector<sim::io_stats> seen;
  for (const std::uint64_t seed : {n + 5, n + 6}) {
    external_fixture fx(n, melbourne_scratch_records(n, config));
    util::pcg64 rng(seed);
    const external_shuffle_result result =
        melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
    ASSERT_EQ(result.stats.retries, 0u);
    seen.push_back(fx.device.stats());
  }
  EXPECT_EQ(seen[0].read_ops, seen[1].read_ops);
  EXPECT_EQ(seen[0].write_ops, seen[1].write_ops);
  EXPECT_EQ(seen[0].sequential_read_ops, seen[1].sequential_read_ops);
  EXPECT_EQ(seen[0].sequential_write_ops, seen[1].sequential_write_ops);
  EXPECT_EQ(seen[0].bytes_read, seen[1].bytes_read);
  EXPECT_EQ(seen[0].bytes_written, seen[1].bytes_written);
  EXPECT_EQ(seen[0].busy_time, seen[1].busy_time);
}

TEST(Melbourne, IoVolumeMatchesQuotaModel) {
  // Phase 1 reads n and writes ~quota*n; phase 2 reads ~quota*n and
  // writes n — the several-passes cost H-ORAM's shuffle avoids.
  constexpr std::uint64_t n = 256;
  const melbourne_config config{.message_quota = 6, .max_retries = 64};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(20);
  melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config);
  const auto& stats = fx.device.stats();
  const std::uint64_t block = 1024;
  EXPECT_GE(stats.bytes_read, n * block * (1 + config.message_quota));
  EXPECT_GE(stats.bytes_written, n * block * (1 + config.message_quota));
}

TEST(Melbourne, TinyQuotaEventuallyThrows) {
  constexpr std::uint64_t n = 64;
  const melbourne_config config{.message_quota = 1, .max_retries = 3};
  external_fixture fx(n, melbourne_scratch_records(n, config));
  util::pcg64 rng(21);
  EXPECT_THROW(
      melbourne_shuffle(*fx.input, *fx.scratch, *fx.output, rng, config),
      std::runtime_error);
}

}  // namespace
}  // namespace horam::shuffle
