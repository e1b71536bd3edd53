#include "crypto/chacha20.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>

#include "crypto/chacha_lanes.h"
#include "util/contracts.h"

namespace horam::crypto {

namespace detail {
namespace {

thread_local unsigned pinned_lanes = 0;

unsigned native_lanes() noexcept {
  // Read once, on first use from any thread (a function-local static has
  // no initialisation-order hazard and is thread-safe).
  static const unsigned lanes = lanes_supported(16)  ? 16u
                                : lanes_supported(8) ? 8u
                                                     : 4u;
  return lanes;
}

}  // namespace

unsigned active_lanes() noexcept {
  return pinned_lanes != 0 ? pinned_lanes : native_lanes();
}

bool lanes_supported(unsigned lanes) noexcept {
#ifdef HORAM_CHACHA_WIDE_LANES
  __builtin_cpu_init();  // CPUID may be read before static constructors.
  if (lanes == 16) {
    return __builtin_cpu_supports("avx512f");
  }
  if (lanes == 8) {
    return __builtin_cpu_supports("avx2");
  }
#endif
  return lanes == 4;
}

pin_lanes::pin_lanes(unsigned lanes) : saved_(pinned_lanes) {
  expects(lanes_supported(lanes), "pin_lanes: width not supported here");
  pinned_lanes = lanes;
}

pin_lanes::~pin_lanes() { pinned_lanes = saved_; }

}  // namespace detail

namespace {

/// out[0, n) = in[0, n) XOR keystream; `in` may equal `out`.
void xor_stream(const chacha_key& key, const chacha_nonce& nonce,
                std::uint32_t counter, const std::uint8_t* in,
                std::uint8_t* out, std::size_t n) noexcept {
  with_lanes([&]<int L>(lanes<L>) __attribute__((always_inline)) {
    no_side_work none;
    chacha_lanes<L>::stream(key, nonce, counter, in, out, n, none);
  });
}

}  // namespace

void chacha20_block(const chacha_key& key, std::uint32_t counter,
                    const chacha_nonce& nonce,
                    std::span<std::uint8_t, 64> out) {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  chacha20_xor(key, nonce, counter, out);
}

void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<std::uint8_t> data) {
  xor_stream(key, nonce, initial_counter, data.data(), data.data(),
             data.size());
}

void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<const std::uint8_t> in,
                  std::span<std::uint8_t> out) {
  expects(in.size() == out.size(), "chacha20_xor: in and out sizes differ");
  const std::less<const std::uint8_t*> before;
  expects(in.data() == out.data() || in.empty() ||
              !before(in.data(), out.data() + out.size()) ||
              !before(out.data(), in.data() + in.size()),
          "chacha20_xor: in and out partially overlap");
  xor_stream(key, nonce, initial_counter, in.data(), out.data(), in.size());
}

chacha_rng::chacha_rng(const chacha_key& key, std::uint64_t stream)
    : key_(key) {
  // The stream index occupies the first 8 nonce bytes; the remaining 4
  // stay zero. Each (key, stream) pair yields an independent keystream.
  std::memcpy(nonce_.data(), &stream, sizeof stream);
}

chacha_rng::chacha_rng(std::uint64_t seed, std::uint64_t stream)
    : chacha_rng(
          [&] {
            chacha_key key{};
            // Expand the seed with splitmix64 so near-by seeds yield
            // unrelated keys.
            std::uint64_t x = seed;
            for (int word = 0; word < 4; ++word) {
              x += 0x9e3779b97f4a7c15ULL;
              std::uint64_t z = x;
              z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
              z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
              z ^= z >> 31;
              std::memcpy(key.data() + 8 * word, &z, sizeof z);
            }
            return key;
          }(),
          stream) {}

std::uint64_t chacha_rng::next_u64() {
  if (used_ + 8 > buffer_.size()) {
    refill();
  }
  std::uint64_t value = 0;
  std::memcpy(&value, buffer_.data() + used_, sizeof value);
  used_ += 8;
  return value;
}

void chacha_rng::refill() {
  // Sixteen counter-mode blocks per refill: the same stream as one block
  // at a time, consumed in order.
  buffer_.fill(0);
  chacha20_xor(key_, nonce_, counter_, buffer_);
  counter_ += buffer_bytes / 64;
  used_ = 0;
}

}  // namespace horam::crypto
