#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>

#include "util/contracts.h"

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "word loads and keystream stores assume a little-endian host");

namespace {

// Four 32-bit lanes, one per keystream block: lane j of state word i is
// word i of block `counter + j`.
typedef std::uint32_t v4u __attribute__((vector_size(16)));

// Shift|or rotate. Byte-shuffle rotates would save instructions on SSSE3,
// but at the baseline x86-64 target GCC scalarises them.
template <int n>
[[gnu::always_inline]] inline v4u rotl(v4u v) noexcept {
  return (v << n) | (v >> (32 - n));
}

// Inlined so the sixteen state vectors stay in registers across a round.
[[gnu::always_inline]] inline void quarter_round(v4u& a, v4u& b, v4u& c,
                                                 v4u& d) noexcept {
  a += b;
  d = rotl<16>(d ^ a);
  c += d;
  b = rotl<12>(b ^ c);
  a += b;
  d = rotl<8>(d ^ a);
  c += d;
  b = rotl<7>(b ^ c);
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Keystream for the four blocks whose input states are the lanes of
/// `state`, in block order: out[4 * j + k] holds bytes [16k, 16k + 16)
/// of block j.
void keystream_group(const v4u (&state)[16], v4u (&out)[16]) noexcept {
  v4u x[16];
  std::memcpy(x, state, sizeof x);
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] += state[i];
  }

  // 4x4 transpose per group of four state words: lanes -> blocks.
  for (int k = 0; k < 4; ++k) {
    const v4u& a = x[4 * k];
    const v4u& b = x[4 * k + 1];
    const v4u& c = x[4 * k + 2];
    const v4u& d = x[4 * k + 3];
    const v4u ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const v4u cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const v4u ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const v4u cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    out[k] = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
    out[4 + k] = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
    out[8 + k] = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
    out[12 + k] = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
  }
}

/// out[0, n) = in[0, n) XOR keystream; `in` may equal `out`.
void xor_stream(const chacha_key& key, const chacha_nonce& nonce,
                std::uint32_t counter, const std::uint8_t* in,
                std::uint8_t* out, std::size_t n) noexcept {
  // RFC 8439 input state: constants, key, counter, nonce. Lane j of the
  // counter word counts block `counter + j`, wrapping mod 2^32.
  v4u state[16] = {v4u{} + 0x61707865, v4u{} + 0x3320646e,
                   v4u{} + 0x79622d32, v4u{} + 0x6b206574};
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = v4u{} + load_le32(key.data() + 4 * i);
  }
  state[12] = v4u{0, 1, 2, 3} + counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = v4u{} + load_le32(nonce.data() + 4 * i);
  }

  v4u keystream[16] = {};
  for (std::size_t offset = 0; offset < n;
       offset += chacha20_group_bytes, state[12] += 4) {
    keystream_group(state, keystream);
    const std::size_t len = std::min(chacha20_group_bytes, n - offset);
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
      v4u v{};
      std::memcpy(&v, in + offset + i, 16);
      v ^= keystream[i / 16];
      std::memcpy(out + offset + i, &v, 16);
    }
    if (i < len) {  // Last partial 16 bytes of the stream.
      std::uint8_t tail[16] = {};
      std::memcpy(tail, &keystream[i / 16], 16);
      for (std::size_t j = 0; i + j < len; ++j) {
        out[offset + i + j] = in[offset + i + j] ^ tail[j];
      }
    }
  }
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
  // Four counter-mode blocks per refill: the same stream as one block at
  // a time, consumed in order.
  buffer_.fill(0);
  chacha20_xor(key_, nonce_, counter_, buffer_);
  counter_ += 4;
  used_ = 0;
}

}  // namespace horam::crypto
