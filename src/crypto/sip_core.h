// SipHash-2-4 cores shared by siphash24() and record sealing
// (crypto/seal.cpp). Internal to src/crypto.
//
// sip_stream hashes a byte buffer whose bytes may become final a little
// at a time: absorb() takes whole 8-byte words as far as the caller says
// the buffer is ready, finish() takes the rest and the length word. So
// the MAC can run inside the ChaCha20 group loop, over ciphertext the
// kernel has just written, and still equal siphash24() of the buffer.
//
// sip_lanes<L> hashes equal-length buffers one per 64-bit lane of the
// vector width of chacha_lanes<L> (2 lanes in SSE2, 4 under AVX2, 8
// under AVX-512F), two vectors side by side. It runs inside
// with_lanes(), like the ChaCha20 kernel, and each lane's tag equals
// siphash24() of its buffer.
#ifndef HORAM_CRYPTO_SIP_CORE_H
#define HORAM_CRYPTO_SIP_CORE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "crypto/siphash.h"

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "word loads assume a little-endian host");

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

struct sip_state {
  std::uint64_t v0, v1, v2, v3;

  explicit sip_state(const siphash_key& key) noexcept {
    const std::uint64_t k0 = load_le64(key.data());
    const std::uint64_t k1 = load_le64(key.data() + 8);
    v0 = 0x736f6d6570736575ULL ^ k0;
    v1 = 0x646f72616e646f6dULL ^ k1;
    v2 = 0x6c7967656e657261ULL ^ k0;
    v3 = 0x7465646279746573ULL ^ k1;
  }

  [[gnu::always_inline]] void round() noexcept {
    v0 += v1;
    v1 = std::rotl(v1, 13);
    v1 ^= v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = std::rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = std::rotl(v1, 17);
    v1 ^= v2;
    v2 = std::rotl(v2, 32);
  }

  /// Two compression rounds over one message word.
  [[gnu::always_inline]] void absorb(std::uint64_t m) noexcept {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  /// Four finalization rounds.
  std::uint64_t finish() noexcept {
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

/// SipHash-2-4 of data[0, size), absorbed in steps.
class sip_stream {
 public:
  sip_stream(const siphash_key& key, const std::uint8_t* data,
             std::size_t size) noexcept
      : state_(key), data_(data), size_(size) {}

  /// Absorbs up to `budget` more whole words that lie in data[0, ready).
  [[gnu::always_inline]] void absorb(std::size_t ready,
                                     std::size_t budget) noexcept {
    const std::size_t end =
        std::min(std::min(ready, size_) / 8, words_ + budget);
    for (; words_ < end; ++words_) {
      state_.absorb(load_le64(data_ + 8 * words_));
    }
  }

  /// Absorbs what is left, then the final word: the remaining bytes plus
  /// the length in the top byte. Returns the tag.
  std::uint64_t finish() noexcept {
    absorb(size_, size_);
    std::uint64_t last = 0;
    if (const std::size_t tail = size_ & 7; tail != 0) {
      std::memcpy(&last, data_ + 8 * words_, tail);
    }
    state_.absorb(last | static_cast<std::uint64_t>(size_ & 0xff) << 56);
    return state_.finish();
  }

 private:
  sip_state state_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t words_ = 0;
};

template <int L>
struct sip_lanes {
  /// 64-bit lanes per vector.
  static constexpr int width = L / 2;
  /// Vectors hashed side by side. Each buffer's rounds form one long
  /// dependency chain, so independent chains keep the pipeline full.
  static constexpr int ways = 2;
  /// Buffers hashed per call.
  static constexpr int buffers = ways * width;

  typedef std::uint64_t vec __attribute__((vector_size(4 * L)));
  typedef std::uint32_t vec32 __attribute__((vector_size(4 * L)));

  /// tags[i] = SipHash-2-4 of data[i][0, size), for i < buffers.
  [[gnu::always_inline]] static void hash(const siphash_key& key,
                                          const std::uint8_t* const* data,
                                          std::size_t size,
                                          std::uint64_t* tags) noexcept {
    constexpr auto seq = std::make_index_sequence<width>();
    const sip_state scalar(key);
    vec v[ways][4];
    for (int w = 0; w < ways; ++w) {
      v[w][0] = vec{} + scalar.v0;
      v[w][1] = vec{} + scalar.v1;
      v[w][2] = vec{} + scalar.v2;
      v[w][3] = vec{} + scalar.v3;
    }
    vec m[ways] = {};
    const std::size_t words = size / 8;
    for (std::size_t word = 0; word < words; ++word) {
      for (int w = 0; w < ways; ++w) {
        gather(m[w], data + w * width, 8 * word, seq);
      }
      absorb(v, m);
    }
    // Final word: the remaining bytes plus the length in the top byte.
    std::uint64_t last[buffers];
    for (int i = 0; i < buffers; ++i) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, data[i] + 8 * words, size & 7);
      last[i] = tail | static_cast<std::uint64_t>(size & 0xff) << 56;
    }
    std::memcpy(m, last, sizeof m);
    absorb(v, m);
    for (int w = 0; w < ways; ++w) {
      v[w][2] ^= 0xff;
    }
    for (int r = 0; r < 4; ++r) {
      round(v);
    }
    for (int w = 0; w < ways; ++w) {
      const vec tag = v[w][0] ^ v[w][1] ^ v[w][2] ^ v[w][3];
      std::memcpy(tags + w * width, &tag, sizeof tag);
    }
  }

 private:
  template <std::size_t... I>
  [[gnu::always_inline]] static void gather(
      vec& out, const std::uint8_t* const* data, std::size_t offset,
      std::index_sequence<I...>) noexcept {
    out = vec{load_le64(data[I] + offset)...};
  }

  template <std::size_t... I>
  [[gnu::always_inline]] static void swap_halves(
      vec32& v, std::index_sequence<I...>) noexcept {
    v = __builtin_shufflevector(v, v, (I ^ 1)...);
  }

  // Rotate by 32 swaps the 32-bit halves of each lane (one pshufd)
  // below AVX-512F, which has a 64-bit rotate for every count.
  template <int n>
  [[gnu::always_inline]] static void rotl(vec& v) noexcept {
    if constexpr (n == 32 && L < 16) {
      vec32 halves = (vec32)v;
      swap_halves(halves, std::make_index_sequence<L>());
      v = (vec)halves;
    } else {
      v = (v << n) | (v >> (64 - n));
    }
  }

  [[gnu::always_inline]] static void round(vec (&v)[ways][4]) noexcept {
#pragma GCC unroll 4
    for (int w = 0; w < ways; ++w) {
      vec& v0 = v[w][0];
      vec& v1 = v[w][1];
      vec& v2 = v[w][2];
      vec& v3 = v[w][3];
      v0 += v1;
      rotl<13>(v1);
      v1 ^= v0;
      rotl<32>(v0);
      v2 += v3;
      rotl<16>(v3);
      v3 ^= v2;
      v0 += v3;
      rotl<21>(v3);
      v3 ^= v0;
      v2 += v1;
      rotl<17>(v1);
      v1 ^= v2;
      rotl<32>(v2);
    }
  }

  /// Two compression rounds over one message word per buffer.
  [[gnu::always_inline]] static void absorb(vec (&v)[ways][4],
                                            const vec (&m)[ways]) noexcept {
    for (int w = 0; w < ways; ++w) {
      v[w][3] ^= m[w];
    }
    round(v);
    round(v);
    for (int w = 0; w < ways; ++w) {
      v[w][0] ^= m[w];
    }
  }
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_SIP_CORE_H
