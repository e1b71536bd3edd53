#include "crypto/siphash.h"

#include <bit>
#include <cstring>

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "word loads assume a little-endian host");

namespace {

constexpr std::uint64_t rotl64(std::uint64_t v, int n) noexcept {
  return (v << n) | (v >> (64 - n));
}

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
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

  void round() noexcept {
    v0 += v1;
    v1 = rotl64(v1, 13);
    v1 ^= v0;
    v0 = rotl64(v0, 32);
    v2 += v3;
    v3 = rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl64(v1, 17);
    v1 ^= v2;
    v2 = rotl64(v2, 32);
  }

  /// Two compression rounds over one message word.
  void absorb(std::uint64_t m) noexcept {
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

}  // namespace

std::uint64_t siphash24(const siphash_key& key,
                        std::span<const std::uint8_t> data) {
  sip_state s(key);
  const std::size_t full_words = data.size() / 8;
  for (std::size_t w = 0; w < full_words; ++w) {
    s.absorb(load_le64(data.data() + 8 * w));
  }

  // Final word: remaining bytes plus the length in the top byte.
  std::uint64_t last = 0;
  if (const std::size_t tail = data.size() & 7; tail != 0) {
    std::memcpy(&last, data.data() + 8 * full_words, tail);
  }
  s.absorb(last | static_cast<std::uint64_t>(data.size() & 0xff) << 56);
  return s.finish();
}

std::uint64_t siphash24_u64(const siphash_key& key, std::uint64_t value) {
  // The byte form of an 8-byte message: one full word, then a final word
  // holding only the length.
  sip_state s(key);
  s.absorb(value);
  s.absorb(std::uint64_t{8} << 56);
  return s.finish();
}

}  // namespace horam::crypto
