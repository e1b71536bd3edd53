// Unit tests for src/util: math helpers, RNG, Fenwick tree, table
// rendering, contracts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "util/contracts.h"
#include "util/fenwick.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace horam::util {
namespace {

// ---------------------------------------------------------------- math

TEST(Math, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 63));
  EXPECT_FALSE(is_pow2((1ULL << 63) + 1));
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_THROW(floor_log2(0), contract_error);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

// A counter walked through reverse_bits visits every leaf once per
// round, consecutive leaves in opposite halves of the tree.
TEST(Math, ReverseBitsWalksLeavesInReverseLexOrder) {
  EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(reverse_bits(0b1001, 3), 0b100u);  // bits above `bits` drop
  EXPECT_EQ(reverse_bits(5, 0), 0u);
  std::vector<std::uint64_t> round;
  for (std::uint64_t counter = 0; counter < 8; ++counter) {
    round.push_back(reverse_bits(counter, 3));
  }
  EXPECT_EQ(round,
            (std::vector<std::uint64_t>{0, 4, 2, 6, 1, 5, 3, 7}));
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_THROW(ceil_div(5, 0), contract_error);
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1ULL << 40), 1ULL << 20);
}

TEST(Math, IsqrtExhaustiveSmall) {
  for (std::uint64_t v = 0; v < 10000; ++v) {
    const std::uint64_t r = isqrt(v);
    EXPECT_LE(r * r, v);
    EXPECT_GT((r + 1) * (r + 1), v);
  }
}

TEST(Math, IsqrtCeil) {
  EXPECT_EQ(isqrt_ceil(16), 4u);
  EXPECT_EQ(isqrt_ceil(17), 5u);
  EXPECT_EQ(isqrt_ceil(65536), 256u);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  pcg64 a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DistinctSeedsDiffer) {
  pcg64 a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DistinctStreamsDiffer) {
  pcg64 a(7, 1), b(7, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBelowRespectsBound) {
  pcg64 rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(uniform_below(rng, bound), bound);
    }
  }
  EXPECT_THROW(uniform_below(rng, 0), contract_error);
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  pcg64 rng(2);
  constexpr std::uint64_t bound = 10;
  constexpr int draws = 100000;
  std::vector<int> histogram(bound, 0);
  for (int i = 0; i < draws; ++i) {
    ++histogram[uniform_below(rng, bound)];
  }
  // Each bin expects 10,000 +- ~300 (3 sigma ~ 285).
  for (const int count : histogram) {
    EXPECT_NEAR(count, draws / static_cast<int>(bound), 600);
  }
}

TEST(Rng, UniformInClosedRange) {
  pcg64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = uniform_in(rng, 5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  pcg64 rng(4);
  int successes = 0;
  constexpr int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    successes += bernoulli(rng, 0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(successes) / trials, 0.3, 0.01);
}

TEST(Rng, RandomPermutationIsPermutation) {
  pcg64 rng(5);
  const auto perm = random_permutation(rng, 100);
  std::set<std::uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationUniformityChiSquare) {
  // All 24 permutations of 4 elements should be equally likely.
  pcg64 rng(6);
  std::map<std::vector<std::uint64_t>, int> counts;
  constexpr int trials = 24000;
  for (int t = 0; t < trials; ++t) {
    counts[random_permutation(rng, 4)]++;
  }
  EXPECT_EQ(counts.size(), 24u);
  double chi2 = 0.0;
  const double expected = trials / 24.0;
  for (const auto& [perm, count] : counts) {
    chi2 += (count - expected) * (count - expected) / expected;
  }
  // dof = 23; mean 23, sigma ~6.8; 64 is far beyond 5 sigma.
  EXPECT_LT(chi2, 64.0);
}

// ------------------------------------------------------------- fenwick

TEST(Fenwick, PrefixSums) {
  fenwick_tree tree(8);
  for (std::size_t i = 0; i < 8; ++i) {
    tree.add(i, static_cast<std::int64_t>(i + 1));  // 1..8
  }
  EXPECT_EQ(tree.prefix_sum(0), 0);
  EXPECT_EQ(tree.prefix_sum(1), 1);
  EXPECT_EQ(tree.prefix_sum(4), 10);
  EXPECT_EQ(tree.prefix_sum(8), 36);
  EXPECT_EQ(tree.total(), 36);
}

TEST(Fenwick, UpdatesPropagate) {
  fenwick_tree tree(5);
  tree.add(2, 10);
  tree.add(2, -4);
  EXPECT_EQ(tree.total(), 6);
  EXPECT_EQ(tree.prefix_sum(2), 0);
  EXPECT_EQ(tree.prefix_sum(3), 6);
}

TEST(Fenwick, FindByOffset) {
  fenwick_tree tree(4);
  tree.add(0, 2);  // offsets 0,1
  tree.add(1, 0);  // empty
  tree.add(2, 3);  // offsets 2,3,4
  tree.add(3, 1);  // offset 5
  EXPECT_EQ(tree.find_by_offset(0), 0u);
  EXPECT_EQ(tree.find_by_offset(1), 0u);
  EXPECT_EQ(tree.find_by_offset(2), 2u);
  EXPECT_EQ(tree.find_by_offset(4), 2u);
  EXPECT_EQ(tree.find_by_offset(5), 3u);
  EXPECT_THROW(static_cast<void>(tree.find_by_offset(6)), contract_error);
  EXPECT_THROW(static_cast<void>(tree.find_by_offset(-1)), contract_error);
}

TEST(Fenwick, FindByOffsetMatchesLinearScan) {
  pcg64 rng(7);
  fenwick_tree tree(37);  // non-power-of-two size
  std::vector<std::int64_t> weights(37, 0);
  for (std::size_t i = 0; i < 37; ++i) {
    const auto w = static_cast<std::int64_t>(uniform_below(rng, 5));
    weights[i] = w;
    tree.add(i, w);
  }
  for (std::int64_t offset = 0; offset < tree.total(); ++offset) {
    std::int64_t remaining = offset;
    std::size_t expected = 0;
    while (remaining >= weights[expected]) {
      remaining -= weights[expected];
      ++expected;
    }
    EXPECT_EQ(tree.find_by_offset(offset), expected) << "offset " << offset;
  }
}

// --------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  text_table table({"A", "Metric"});
  table.add_row({"1", "x"});
  table.add_row({"22", "yy"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| A  | Metric |"), std::string::npos);
  EXPECT_NE(text.find("| 22 | yy     |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  text_table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  text_table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), contract_error);
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64ULL * 1024 * 1024), "64 MB");
  EXPECT_EQ(format_bytes(1024ULL * 1024 * 1024), "1 GB");
  EXPECT_EQ(format_bytes(1920ULL * 1024 * 1024), "1.875 GB");
}

TEST(Table, FormatTime) {
  EXPECT_EQ(format_time_ns(500), "500 ns");
  EXPECT_EQ(format_time_ns(77000), "77 us");
  EXPECT_EQ(format_time_ns(1290 * 1000000LL), "1.29 s");
}

TEST(Table, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(262144), "262,144");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

// ----------------------------------------------------------- contracts

TEST(Contracts, ThrowWithMessage) {
  try {
    expects(false, "the reason");
    FAIL() << "expects did not throw";
  } catch (const contract_error& error) {
    EXPECT_NE(std::string(error.what()).find("the reason"),
              std::string::npos);
  }
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_THROW(ensures(false, "x"), contract_error);
  EXPECT_THROW(invariant(false, "x"), contract_error);
}

}  // namespace
}  // namespace horam::util
