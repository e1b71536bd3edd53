// SipHash-2-4 core shared by siphash24() and the fused seal/open pass
// (crypto/seal.cpp). Internal to src/crypto.
//
// sip_stream hashes a byte buffer whose bytes may become final a little
// at a time: absorb() takes whole 8-byte words as far as the caller says
// the buffer is ready, finish() takes the rest and the length word. So
// the MAC can run inside the ChaCha20 group loop, over ciphertext the
// kernel has just written, and still equal siphash24() of the buffer.
#ifndef HORAM_CRYPTO_SIP_CORE_H
#define HORAM_CRYPTO_SIP_CORE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

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

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_SIP_CORE_H
