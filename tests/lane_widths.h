// Runs a test once per compiled ChaCha20 kernel width (4, 8 and 16
// lanes). Each width is pinned for the test body through
// crypto::detail::pin_lanes; widths this host's CPU lacks are skipped,
// and 4 lanes always runs, so the 128-bit path stays covered on hosts
// whose native width is wider.
//
//   using SealLanes = test::lane_width_test;
//   TEST_P(SealLanes, Name) { ... }
//   INSTANTIATE_TEST_SUITE_P(Widths, SealLanes, test::lane_widths(),
//                            test::lane_width_name);
#ifndef HORAM_TESTS_LANE_WIDTHS_H
#define HORAM_TESTS_LANE_WIDTHS_H

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "crypto/chacha_lanes.h"

namespace horam::test {

class lane_width_test : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    if (!crypto::detail::lanes_supported(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane kernel not supported by this CPU";
    }
    pin_.emplace(GetParam());
  }

 private:
  std::optional<crypto::detail::pin_lanes> pin_;
};

inline auto lane_widths() { return ::testing::Values(4u, 8u, 16u); }

inline std::string lane_width_name(
    const ::testing::TestParamInfo<unsigned>& info) {
  return "L" + std::to_string(info.param);
}

}  // namespace horam::test

#endif  // HORAM_TESTS_LANE_WIDTHS_H
