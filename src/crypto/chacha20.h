// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// Used for two jobs in this codebase:
//   * sealing block payloads before they leave the trusted control layer
//     (see crypto/seal.h), and
//   * as the core of chacha_rng, the CSPRNG behind all security-relevant
//     random choices (leaf remapping, permutation generation).
//
// One kernel serves every entry point (crypto/chacha_lanes.h). It is a
// single template over the lane count L that computes L consecutive
// keystream blocks per step: L = 4 in 128-bit vectors (SSE2 on the
// default x86-64 target, and the only width elsewhere), L = 8 under
// AVX2 and L = 16 under AVX-512F. The widest one the CPU supports is
// chosen from CPUID once per process; there is no knob, and every width
// produces the same bytes.
#ifndef HORAM_CRYPTO_CHACHA20_H
#define HORAM_CRYPTO_CHACHA20_H

#include <array>
#include <cstdint>
#include <span>

#include "util/rng.h"

namespace horam::crypto {

/// 256-bit key.
using chacha_key = std::array<std::uint8_t, 32>;
/// 96-bit nonce (RFC 8439 layout).
using chacha_nonce = std::array<std::uint8_t, 12>;

/// Computes one 64-byte ChaCha20 keystream block for (key, counter, nonce).
void chacha20_block(const chacha_key& key, std::uint32_t counter,
                    const chacha_nonce& nonce,
                    std::span<std::uint8_t, 64> out);

/// XORs `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
/// The block counter wraps mod 2^32, as RFC 8439's 32-bit counter does.
void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<std::uint8_t> data);

/// Copy-XOR form: out = in XOR keystream. `in` and `out` have the same
/// size and are either the same bytes or disjoint; a partial overlap or
/// a size mismatch throws contract_error.
void chacha20_xor(const chacha_key& key, const chacha_nonce& nonce,
                  std::uint32_t initial_counter,
                  std::span<const std::uint8_t> in,
                  std::span<std::uint8_t> out);

/// Cryptographically strong random stream built on the ChaCha20 block
/// function in counter mode. Deterministic for a fixed key, which keeps
/// simulations reproducible while exercising the exact code path a
/// deployment would use with a hardware-seeded key.
class chacha_rng final : public util::random_source {
 public:
  explicit chacha_rng(const chacha_key& key, std::uint64_t stream = 0);

  /// Convenience: derives the 256-bit key from a 64-bit seed (test use).
  explicit chacha_rng(std::uint64_t seed, std::uint64_t stream = 0);

  std::uint64_t next_u64() override;

 private:
  void refill();

  // One group of the widest kernel: a refill is a whole number of kernel
  // steps at every width.
  static constexpr std::size_t buffer_bytes = 16 * 64;

  chacha_key key_{};
  chacha_nonce nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, buffer_bytes> buffer_{};
  std::size_t used_ = buffer_bytes;  // Forces a refill on first use.
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_CHACHA20_H
