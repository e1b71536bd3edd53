#include "crypto/seal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/contracts.h"

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "nonce and tag words are stored in host byte order");

namespace {

// Sealed payloads start at keystream block 1, as in RFC 8439's AEAD.
constexpr std::uint32_t first_payload_block = 1;

}  // namespace

seal_keys derive_seal_keys(std::uint64_t master_seed) {
  // Expand the master seed through a ChaCha20 stream keyed off the seed;
  // the first 32 bytes become the encryption key, the next 16 the MAC key.
  chacha_rng expander(master_seed, /*stream=*/0x5ea1);
  seal_keys keys;
  for (auto& byte : keys.encryption_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  for (auto& byte : keys.mac_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  return keys;
}

block_sealer::block_sealer(const seal_keys& keys) : keys_(keys) {}

void block_sealer::seal(std::span<const std::uint8_t> plaintext,
                        std::span<std::uint8_t> out) {
  const std::size_t size = plaintext.size();
  expects(out.size() == size + seal_overhead,
          "sealed buffer must be plaintext size + seal_overhead");

  // Nonce: 8-byte counter || 4 zero bytes. Unique per seal per instance.
  chacha_nonce nonce{};
  const std::uint64_t n = nonce_counter_++;
  std::memcpy(nonce.data(), &n, sizeof n);
  std::memcpy(out.data(), nonce.data(), nonce.size());

  chacha20_xor(keys_.encryption_key, nonce, first_payload_block, plaintext,
               out.subspan(seal_nonce_bytes, size));

  // MAC over nonce || ciphertext.
  const std::uint64_t tag =
      siphash24(keys_.mac_key, out.first(seal_nonce_bytes + size));
  std::memcpy(out.data() + seal_nonce_bytes + size, &tag, sizeof tag);
}

void block_sealer::open(std::span<const std::uint8_t> sealed,
                        std::span<std::uint8_t> plaintext_out) const {
  if (sealed.size() < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  expects(plaintext_out.size() == sealed.size() - seal_overhead,
          "plaintext buffer must be sealed size - seal_overhead");
  open(sealed, plaintext_out, {});
}

void block_sealer::open(std::span<const std::uint8_t> sealed,
                        std::span<std::uint8_t> head,
                        std::span<std::uint8_t> body) const {
  if (sealed.size() < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  const std::size_t size = sealed.size() - seal_overhead;
  const std::size_t h = head.size();
  expects(h <= size && (body.empty() || h + body.size() == size),
          "head and body must split the plaintext");

  const std::uint64_t expected_tag =
      siphash24(keys_.mac_key, sealed.first(seal_nonce_bytes + size));
  std::uint64_t stored_tag = 0;
  std::memcpy(&stored_tag, sealed.data() + seal_nonce_bytes + size,
              sizeof stored_tag);
  if (stored_tag != expected_tag) {
    throw crypto_error("MAC verification failed: block tampered or corrupt");
  }

  chacha_nonce nonce{};
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  const auto ciphertext = sealed.subspan(seal_nonce_bytes, size);
  const std::size_t end = body.empty() ? h : size;
  const auto counter_at = [](std::size_t offset) {
    return static_cast<std::uint32_t>(first_payload_block + offset / 64);
  };

  // Whole keystream groups of the head decrypt straight into it, the
  // group holding the head/body boundary through a stack block, and the
  // rest straight into the body.
  const std::size_t split = h - h % chacha20_group_bytes;
  chacha20_xor(keys_.encryption_key, nonce, counter_at(0),
               ciphertext.first(split), head.first(split));
  std::array<std::uint8_t, chacha20_group_bytes> boundary{};
  const std::size_t len = std::min(chacha20_group_bytes, end - split);
  chacha20_xor(keys_.encryption_key, nonce, counter_at(split),
               ciphertext.subspan(split, len),
               std::span(boundary).first(len));
  std::copy_n(boundary.begin(), h - split, head.begin() + split);
  std::copy(boundary.begin() + (h - split), boundary.begin() + len,
            body.begin());
  const std::size_t rest = split + len;
  chacha20_xor(keys_.encryption_key, nonce, counter_at(rest),
               ciphertext.subspan(rest, end - rest),
               body.subspan(rest - h));
}

}  // namespace horam::crypto
