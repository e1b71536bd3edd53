// Unit tests for src/crypto: ChaCha20 against RFC 8439 vectors and an
// in-test scalar reference (every tail length, misaligned buffers,
// counter wrap), SipHash against the reference-implementation vectors
// and a byte-wise reference, sealing round trips, in-place sealing,
// tamper detection and pinned wire bytes, CSPRNG behaviour and pinned
// output. The *Lanes suites run at every kernel width the host has.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/seal.h"
#include "crypto/siphash.h"
#include "lane_widths.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace horam::crypto {
namespace {

chacha_key rfc_key() {
  chacha_key key;
  for (int i = 0; i < 32; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  return key;
}

std::vector<std::uint8_t> pattern(std::size_t size, unsigned mul,
                                  unsigned add) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return bytes;
}

// ------------------------------------------------- scalar references

std::uint32_t ref_rotl(std::uint32_t v, int n) {
  return (v << n) | (v >> (32 - n));
}

std::uint32_t ref_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void ref_quarter(std::uint32_t* x, int a, int b, int c, int d) {
  x[a] += x[b];
  x[d] = ref_rotl(x[d] ^ x[a], 16);
  x[c] += x[d];
  x[b] = ref_rotl(x[b] ^ x[c], 12);
  x[a] += x[b];
  x[d] = ref_rotl(x[d] ^ x[a], 8);
  x[c] += x[d];
  x[b] = ref_rotl(x[b] ^ x[c], 7);
}

// RFC 8439 section 2.3, one block at a time, byte by byte.
std::array<std::uint8_t, 64> ref_block(const chacha_key& key,
                                       std::uint32_t counter,
                                       const chacha_nonce& nonce) {
  std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32,
                             0x6b206574};
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = ref_le32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = ref_le32(nonce.data() + 4 * i);
  }
  std::uint32_t x[16];
  std::memcpy(x, state, sizeof x);
  for (int round = 0; round < 10; ++round) {
    ref_quarter(x, 0, 4, 8, 12);
    ref_quarter(x, 1, 5, 9, 13);
    ref_quarter(x, 2, 6, 10, 14);
    ref_quarter(x, 3, 7, 11, 15);
    ref_quarter(x, 0, 5, 10, 15);
    ref_quarter(x, 1, 6, 11, 12);
    ref_quarter(x, 2, 7, 8, 13);
    ref_quarter(x, 3, 4, 9, 14);
  }
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t word = x[i] + state[i];
    for (int b = 0; b < 4; ++b) {
      out[static_cast<std::size_t>(4 * i + b)] =
          static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

// RFC 8439 section 2.4: the 32-bit block counter wraps mod 2^32.
std::vector<std::uint8_t> ref_xor(const chacha_key& key,
                                  const chacha_nonce& nonce,
                                  std::uint32_t counter,
                                  std::vector<std::uint8_t> data) {
  for (std::size_t offset = 0; offset < data.size(); offset += 64) {
    const auto block = ref_block(key, counter++, nonce);
    for (std::size_t i = 0; i < 64 && offset + i < data.size(); ++i) {
      data[offset + i] ^= block[i];
    }
  }
  return data;
}

// SipHash-2-4 straight from the paper, byte by byte.
std::uint64_t ref_siphash(const siphash_key& key, const std::uint8_t* data,
                          std::size_t size) {
  const auto rotl = [](std::uint64_t v, int n) {
    return (v << n) | (v >> (64 - n));
  };
  const auto le64 = [](const std::uint8_t* p, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
  };
  const std::uint64_t k0 = le64(key.data(), 8), k1 = le64(key.data() + 8, 8);
  std::uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  std::uint64_t v3 = 0x7465646279746573ULL ^ k1;
  const auto sipround = [&] {
    v0 += v1, v1 = rotl(v1, 13), v1 ^= v0, v0 = rotl(v0, 32);
    v2 += v3, v3 = rotl(v3, 16), v3 ^= v2;
    v0 += v3, v3 = rotl(v3, 21), v3 ^= v0;
    v2 += v1, v1 = rotl(v1, 17), v1 ^= v2, v2 = rotl(v2, 32);
  };
  const auto compress = [&](std::uint64_t m) {
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  };
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    compress(le64(data + i, 8));
  }
  compress(le64(data + i, size - i) |
           static_cast<std::uint64_t>(size & 0xff) << 56);
  v2 ^= 0xff;
  for (int r = 0; r < 4; ++r) {
    sipround();
  }
  return v0 ^ v1 ^ v2 ^ v3;
}

// -------------------------------------------------------------- chacha

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:
  // 00:00:00:00, counter 1.
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::array<std::uint8_t, 64> block;
  chacha20_block(key, 1, nonce, block);

  constexpr std::uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(std::memcmp(block.data(), expected, 64), 0);
  // The in-test reference agrees with the RFC too.
  EXPECT_EQ(std::memcmp(ref_block(key, 1, nonce).data(), expected, 64), 0);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 section 2.4.2.
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  chacha20_xor(key, nonce, 1, data);

  constexpr std::uint8_t expected_head[16] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80,
      0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81};
  ASSERT_GE(data.size(), 16u);
  EXPECT_EQ(std::memcmp(data.data(), expected_head, 16), 0);

  constexpr std::uint8_t expected_tail[8] = {0x8e, 0xed, 0xf2, 0x78,
                                             0x5e, 0x42, 0x87, 0x4d};
  EXPECT_EQ(std::memcmp(data.data() + data.size() - 8, expected_tail, 8),
            0);
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<std::uint8_t> original = data;
  chacha20_xor(key, nonce, 0, data);
  EXPECT_NE(data, original);
  chacha20_xor(key, nonce, 0, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, DifferentCountersProduceDifferentBlocks) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::array<std::uint8_t, 64> a, b;
  chacha20_block(key, 0, nonce, a);
  chacha20_block(key, 1, nonce, b);
  EXPECT_NE(std::memcmp(a.data(), b.data(), 64), 0);
}

TEST(ChaCha20, BlockMatchesReferenceAcrossCounters) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  for (const std::uint32_t counter :
       {0u, 1u, 2u, 3u, 4u, 0xFFFFFFFDu, 0xFFFFFFFFu}) {
    std::array<std::uint8_t, 64> block;
    chacha20_block(key, counter, nonce, block);
    EXPECT_EQ(block, ref_block(key, counter, nonce)) << "counter " << counter;
  }
}

using ChaCha20Lanes = test::lane_width_test;
INSTANTIATE_TEST_SUITE_P(Widths, ChaCha20Lanes, test::lane_widths(),
                         test::lane_width_name);

// Every length 0..2200 covers every tail size past two 16-lane groups;
// counters 0xFFFFFFFD and 0xFFFFFFF1 make the lanes of the first group
// wrap at every width.
TEST_P(ChaCha20Lanes, XorMatchesReferenceForEveryLengthAndCounter) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x07};
  const std::vector<std::uint8_t> source = pattern(2200, 31, 7);
  for (const std::uint32_t counter : {0u, 1u, 0xFFFFFFFDu, 0xFFFFFFF1u}) {
    // Every length is a prefix of one reference stream.
    const std::vector<std::uint8_t> reference =
        ref_xor(key, nonce, counter, source);
    for (std::size_t size = 0; size <= source.size(); ++size) {
      const std::vector<std::uint8_t> plain(source.begin(),
                                            source.begin() + size);
      const std::vector<std::uint8_t> expected(reference.begin(),
                                               reference.begin() + size);

      std::vector<std::uint8_t> in_place = plain;
      chacha20_xor(key, nonce, counter, in_place);
      ASSERT_EQ(in_place, expected)
          << "in place, size " << size << ", counter " << counter;

      std::vector<std::uint8_t> copied(size, 0xee);
      chacha20_xor(key, nonce, counter, plain, copied);
      ASSERT_EQ(copied, expected)
          << "copy, size " << size << ", counter " << counter;
    }
  }
}

TEST_P(ChaCha20Lanes, MisalignedBuffersMatchReference) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  constexpr std::size_t size = 2100;  // two 16-lane groups and a tail
  const std::vector<std::uint8_t> plain = pattern(size, 13, 1);
  const std::vector<std::uint8_t> expected = ref_xor(key, nonce, 5, plain);
  std::vector<std::uint8_t> in_buffer(size + 64), out_buffer(size + 64);
  for (std::size_t shift = 1; shift < 64; ++shift) {
    std::memcpy(in_buffer.data() + shift, plain.data(), size);
    const std::span<std::uint8_t> in(in_buffer.data() + shift, size);
    // Copy form: input misaligned by `shift`, output by 64 - shift.
    const std::span<std::uint8_t> out(out_buffer.data() + 64 - shift, size);
    chacha20_xor(key, nonce, 5, in, out);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), size), 0)
        << "copy, shift " << shift;
    chacha20_xor(key, nonce, 5, in);
    EXPECT_EQ(std::memcmp(in.data(), expected.data(), size), 0)
        << "in place, shift " << shift;
  }
}

TEST(ChaCha20, CopyFormRejectsBadSpans) {
  const chacha_key key = rfc_key();
  const chacha_nonce nonce{};
  std::vector<std::uint8_t> buffer(128);
  const std::span<std::uint8_t> all(buffer);
  EXPECT_THROW(chacha20_xor(key, nonce, 0, all.first(64), all.subspan(64, 63)),
               contract_error);
  EXPECT_THROW(chacha20_xor(key, nonce, 0, all.first(64), all.subspan(1, 64)),
               contract_error);
  EXPECT_THROW(chacha20_xor(key, nonce, 0, all.subspan(1, 64), all.first(64)),
               contract_error);
  // Adjacent spans do not overlap.
  EXPECT_NO_THROW(
      chacha20_xor(key, nonce, 0, all.first(64), all.subspan(64, 64)));
}

// --------------------------------------------------------------- siphash

// SipHash-2-4 reference vectors (Aumasson & Bernstein reference code):
// key = 000102...0f, message = first n bytes of 00 01 02 ...
TEST(SipHash, ReferenceVectors) {
  siphash_key key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> message;
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL};
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(siphash24(key, message), expected[n]) << "length " << n;
    EXPECT_EQ(ref_siphash(key, message.data(), n), expected[n])
        << "reference, length " << n;
    message.push_back(static_cast<std::uint8_t>(n));
  }
}

TEST(SipHash, UnalignedSpansMatchReference) {
  siphash_key key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xf0 - i);
  }
  const std::vector<std::uint8_t> buffer = pattern(1024 + 16, 7, 3);
  for (std::size_t shift = 0; shift < 16; ++shift) {
    for (const std::size_t size :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 100u, 1024u}) {
      const std::span<const std::uint8_t> data(buffer.data() + shift, size);
      EXPECT_EQ(siphash24(key, data), ref_siphash(key, data.data(), size))
          << "shift " << shift << ", size " << size;
    }
  }
}

TEST(SipHash, U64ConvenienceMatchesByteForm) {
  siphash_key key{};
  key[0] = 0xaa;
  util::pcg64 values(2024);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t value =
        trial == 0 ? 0x0123456789abcdefULL : values.next_u64();
    std::array<std::uint8_t, 8> bytes;
    for (int i = 0; i < 8; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
    ASSERT_EQ(siphash24_u64(key, value), siphash24(key, bytes))
        << "value " << value;
  }
}

TEST(SipHash, KeyMatters) {
  siphash_key a{}, b{};
  b[15] = 1;
  std::vector<std::uint8_t> message{1, 2, 3};
  EXPECT_NE(siphash24(a, message), siphash24(b, message));
}

// ----------------------------------------------------------------- seal

std::vector<std::uint8_t> seal_copy(block_sealer& sealer,
                                    std::span<const std::uint8_t> plain) {
  std::vector<std::uint8_t> sealed(plain.size() + seal_overhead);
  sealer.seal(plain, sealed);
  return sealed;
}

std::vector<std::uint8_t> open_copy(const block_sealer& sealer,
                                    std::span<const std::uint8_t> sealed) {
  std::vector<std::uint8_t> plain(
      sealed.size() >= seal_overhead ? sealed.size() - seal_overhead : 0);
  sealer.open(sealed, plain);
  return plain;
}

TEST(Seal, RoundTrip) {
  block_sealer sealer(derive_seal_keys(1));
  const std::vector<std::uint8_t> plaintext = pattern(100, 3, 0);
  const auto sealed = seal_copy(sealer, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + seal_overhead);
  EXPECT_EQ(open_copy(sealer, sealed), plaintext);
}

TEST(Seal, SameplaintextSealsDiffer) {
  // Fresh nonces make repeated seals of identical data unlinkable —
  // the property H-ORAM's re-encrypting write-backs rely on.
  block_sealer sealer(derive_seal_keys(2));
  const std::vector<std::uint8_t> plaintext(64, 0x5a);
  const auto first = seal_copy(sealer, plaintext);
  const auto second = seal_copy(sealer, plaintext);
  EXPECT_NE(first, second);
  EXPECT_EQ(open_copy(sealer, first), plaintext);
  EXPECT_EQ(open_copy(sealer, second), plaintext);
}

TEST(Seal, TamperedCiphertextRejected) {
  block_sealer sealer(derive_seal_keys(3));
  const std::vector<std::uint8_t> plaintext(32, 1);
  auto sealed = seal_copy(sealer, plaintext);
  sealed[14] ^= 0x01;  // flip one ciphertext bit
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TamperedMacRejected) {
  block_sealer sealer(derive_seal_keys(4));
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(32, 2));
  sealed.back() ^= 0x80;  // flip one MAC bit
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TamperedNonceRejected) {
  block_sealer sealer(derive_seal_keys(5));
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(32, 3));
  sealed[0] ^= 0x01;  // nonce is MACed too
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, TruncatedBufferRejected) {
  block_sealer sealer(derive_seal_keys(6));
  EXPECT_THROW(
      open_copy(sealer, std::vector<std::uint8_t>(seal_overhead - 1)),
      crypto_error);
  // A sealed record cut short fails its MAC.
  auto sealed = seal_copy(sealer, std::vector<std::uint8_t>(32, 4));
  sealed.pop_back();
  EXPECT_THROW(open_copy(sealer, sealed), crypto_error);
}

TEST(Seal, WrongKeyRejected) {
  block_sealer alice(derive_seal_keys(7));
  block_sealer mallory(derive_seal_keys(8));
  const auto sealed = seal_copy(alice, std::vector<std::uint8_t>(16, 9));
  EXPECT_THROW(open_copy(mallory, sealed), crypto_error);
}

TEST(Seal, EmptyishAndLargePayloads) {
  block_sealer sealer(derive_seal_keys(9));
  for (const std::size_t size : {0u, 1u, 63u, 64u, 65u, 255u, 256u, 257u,
                                 4096u}) {
    std::vector<std::uint8_t> plaintext(size, 0xcd);
    EXPECT_EQ(open_copy(sealer, seal_copy(sealer, plaintext)), plaintext)
        << "payload size " << size;
  }
}

TEST(Seal, WrongSizeSpansRejected) {
  block_sealer sealer(derive_seal_keys(13));
  const std::vector<std::uint8_t> plaintext(40, 1);
  std::vector<std::uint8_t> small(40 + seal_overhead - 1);
  std::vector<std::uint8_t> large(40 + seal_overhead + 1);
  EXPECT_THROW(sealer.seal(plaintext, small), contract_error);
  EXPECT_THROW(sealer.seal(plaintext, large), contract_error);

  const auto sealed = seal_copy(sealer, plaintext);
  std::vector<std::uint8_t> short_out(39), long_out(41);
  EXPECT_THROW(sealer.open(sealed, short_out), contract_error);
  EXPECT_THROW(sealer.open(sealed, long_out), contract_error);
  std::vector<std::uint8_t> head(8), body(31), too_long_head(41);
  EXPECT_THROW(sealer.open(sealed, head, body), contract_error);
  EXPECT_THROW(sealer.open(sealed, too_long_head, {}), contract_error);

  // A plaintext overlapping the nonce is neither disjoint nor in place.
  std::vector<std::uint8_t> record(40 + seal_overhead);
  EXPECT_THROW(sealer.seal(std::span(record).first(40), record),
               contract_error);
  // Nor is an open() output that does.
  record = sealed;
  EXPECT_THROW(sealer.open(record, std::span(record).first(40)),
               contract_error);
  EXPECT_THROW(sealer.open(record, std::span(record).subspan(12, 8),
                           std::span(record).subspan(19, 32)),
               contract_error);
}

using SealLanes = test::lane_width_test;
INSTANTIATE_TEST_SUITE_P(Widths, SealLanes, test::lane_widths(),
                         test::lane_width_name);

TEST_P(SealLanes, InPlaceMatchesCopyForm) {
  // Two sealers with the same keys draw the same nonces, so in-place and
  // copy-form seals of the same plaintext must give the same bytes.
  for (const std::size_t size : {0u, 8u, 100u, 256u, 1032u, 2200u}) {
    block_sealer copy_sealer(derive_seal_keys(11));
    block_sealer in_place_sealer(derive_seal_keys(11));
    const std::vector<std::uint8_t> plaintext = pattern(size, 5, 9);
    const auto expected = seal_copy(copy_sealer, plaintext);

    std::vector<std::uint8_t> record(size + seal_overhead, 0);
    const std::span<std::uint8_t> body =
        std::span(record).subspan(seal_nonce_bytes, size);
    std::copy(plaintext.begin(), plaintext.end(), body.begin());
    in_place_sealer.seal(body, record);
    EXPECT_EQ(record, expected) << "size " << size;

    // Open in place: the plaintext replaces the ciphertext.
    in_place_sealer.open(record, body);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), plaintext.begin()))
        << "size " << size;
  }
}

// Sizes and heads on both sides of open()'s 1088-byte window.
TEST_P(SealLanes, ScatterOpenSplitsPlaintext) {
  block_sealer sealer(derive_seal_keys(12));
  for (const std::size_t size : {8u, 72u, 264u, 600u, 1032u, 2200u}) {
    const std::vector<std::uint8_t> plaintext = pattern(size, 17, 2);
    const auto sealed = seal_copy(sealer, plaintext);
    for (const std::size_t h : {std::size_t{0}, std::size_t{8},
                                std::size_t{255}, std::size_t{256},
                                std::size_t{300}, std::size_t{1100},
                                std::size_t{1500}, size}) {
      if (h > size) {
        continue;
      }
      std::vector<std::uint8_t> head(h), body(size - h);
      sealer.open(sealed, head, body);
      EXPECT_TRUE(std::equal(head.begin(), head.end(), plaintext.begin()))
          << "size " << size << ", head " << h;
      EXPECT_TRUE(std::equal(body.begin(), body.end(), plaintext.begin() + h))
          << "size " << size << ", head " << h;

      // Head only: the body stays unwritten, the MAC is still checked.
      std::vector<std::uint8_t> head_only(h);
      sealer.open(sealed, head_only, {});
      EXPECT_EQ(head_only, head) << "size " << size << ", head " << h;

      // Both spans in place over the ciphertext.
      std::vector<std::uint8_t> record = sealed;
      const std::span<std::uint8_t> text =
          std::span(record).subspan(seal_nonce_bytes, size);
      sealer.open(record, text.first(h), text.subspan(h));
      EXPECT_TRUE(std::equal(text.begin(), text.end(), plaintext.begin()))
          << "in place, size " << size << ", head " << h;
    }
  }
}

// A flip in the nonce, in any keystream group or in the tag fails the
// MAC, and no output byte is written: not into a separate buffer, not
// into a scatter pair, not over the ciphertext when opening in place.
TEST_P(SealLanes, TamperedOpenLeavesOutputUntouched) {
  block_sealer sealer(derive_seal_keys(10));
  constexpr std::size_t size = 2200;
  const auto sealed = seal_copy(sealer, pattern(size, 3, 6));
  const std::size_t group_bytes = 64 * GetParam();
  std::vector<std::size_t> flips = {0, 11, sealed.size() - 1};
  for (std::size_t offset = 0; offset < size; offset += group_bytes) {
    flips.push_back(seal_nonce_bytes + offset);
    flips.push_back(seal_nonce_bytes + std::min(size, offset + group_bytes) -
                    1);
  }
  for (const std::size_t at : flips) {
    auto tampered = sealed;
    tampered[at] ^= 0x10;
    std::vector<std::uint8_t> out(size, 0xab);
    EXPECT_THROW(sealer.open(tampered, out), crypto_error) << "byte " << at;
    EXPECT_EQ(out, std::vector<std::uint8_t>(size, 0xab)) << "byte " << at;

    std::vector<std::uint8_t> head(8, 0xcd), body(size - 8, 0xef);
    EXPECT_THROW(sealer.open(tampered, head, body), crypto_error)
        << "byte " << at;
    EXPECT_EQ(head, std::vector<std::uint8_t>(8, 0xcd)) << "byte " << at;
    EXPECT_EQ(body, std::vector<std::uint8_t>(size - 8, 0xef))
        << "byte " << at;

    auto record = tampered;
    EXPECT_THROW(sealer.open(record, std::span(record).subspan(
                                         seal_nonce_bytes, size)),
                 crypto_error)
        << "byte " << at;
    EXPECT_EQ(record, tampered) << "byte " << at;
  }
}

// Captured before the vectorised kernel replaced the one-block scalar
// one: the bytes on the wire must not change.
TEST_P(SealLanes, GoldenSealedRecord) {
  block_sealer sealer(derive_seal_keys(2019));
  const std::vector<std::uint8_t> plaintext = pattern(40, 11, 3);
  std::vector<std::uint8_t> sealed;
  for (int nonce_counter = 0; nonce_counter <= 2; ++nonce_counter) {
    sealed = seal_copy(sealer, plaintext);
  }
  const std::vector<std::uint8_t> expected = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x6b, 0xe1, 0x47, 0x26, 0x36, 0x87, 0x12, 0x1e, 0xbc, 0x89, 0x14, 0x6a,
      0xcb, 0xf2, 0x77, 0xc9, 0xac, 0x80, 0xaa, 0x11, 0x1b, 0xc1, 0x4e, 0x5a,
      0xa2, 0xb7, 0xd9, 0x5b, 0xbe, 0xab, 0xb2, 0xb2, 0xf4, 0x05, 0xc2, 0xe2,
      0x9d, 0xa3, 0xb2, 0xa3, 0x3e, 0x17, 0x3e, 0x23, 0x46, 0x67, 0x39, 0x5a,
  };
  EXPECT_EQ(sealed, expected);
  EXPECT_EQ(open_copy(sealer, sealed), plaintext);

  // A multi-group record, pinned by its FNV-1a digest.
  block_sealer long_sealer(derive_seal_keys(77));
  const auto long_sealed = seal_copy(long_sealer, pattern(300, 13, 5));
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : long_sealed) {
    digest = (digest ^ byte) * 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 0x08700d556a15f4cdULL);
}

// A batch seals to the bytes seal() gives record by record (the same
// nonces, in record order) and opens back to every plaintext, for batch
// sizes around the lane and SipHash widths and up to a full seal slice.
TEST_P(SealLanes, ManyMatchesOneAtATime) {
  for (const std::size_t record_bytes : {44u, 1052u, 2220u}) {
    const std::size_t size = record_bytes - seal_overhead;
    for (const std::size_t count : {0u, 1u, 2u, 7u, 8u, 9u, 17u, 42u, 64u}) {
      block_sealer one(derive_seal_keys(21));
      block_sealer many(derive_seal_keys(21));
      std::vector<std::vector<std::uint8_t>> plains;
      std::vector<std::uint8_t> expected;
      std::vector<std::uint8_t> batch(count * record_bytes, 0);
      for (std::size_t r = 0; r < count; ++r) {
        plains.push_back(pattern(size, 3 + static_cast<unsigned>(r),
                                 7 * static_cast<unsigned>(r)));
        const auto sealed = seal_copy(one, plains.back());
        expected.insert(expected.end(), sealed.begin(), sealed.end());
        std::copy(plains.back().begin(), plains.back().end(),
                  batch.begin() + static_cast<std::ptrdiff_t>(
                                      r * record_bytes + seal_nonce_bytes));
      }
      many.seal_many(batch, record_bytes);
      ASSERT_EQ(batch, expected)
          << "record " << record_bytes << ", count " << count;
      // Both sealers go on from the same nonce.
      const auto probe = pattern(size, 1, 1);
      EXPECT_EQ(seal_copy(many, probe), seal_copy(one, probe));

      for (const std::size_t h : {std::size_t{0}, std::size_t{8}, size}) {
        std::vector<std::uint8_t> heads(count * h, 0x5a);
        std::vector<std::uint8_t> bodies(count * (size - h), 0x5a);
        many.open_many(batch, record_bytes, heads, bodies);
        std::vector<std::uint8_t> head_only(count * h, 0x5a);
        many.open_many(batch, record_bytes, head_only, {});
        EXPECT_EQ(head_only, heads) << "head " << h;
        for (std::size_t r = 0; r < count; ++r) {
          const auto& plain = plains[r];
          EXPECT_TRUE(std::equal(plain.begin(),
                                 plain.begin() + static_cast<std::ptrdiff_t>(h),
                                 heads.begin() +
                                     static_cast<std::ptrdiff_t>(r * h)))
              << "record " << record_bytes << ", count " << count
              << ", head " << h << ", r " << r;
          EXPECT_TRUE(std::equal(
              plain.begin() + static_cast<std::ptrdiff_t>(h), plain.end(),
              bodies.begin() + static_cast<std::ptrdiff_t>(r * (size - h))))
              << "record " << record_bytes << ", count " << count
              << ", head " << h << ", r " << r;
        }
      }
    }
  }
}

// A flip in the nonce, ciphertext or tag of any one record fails the
// batch before a single output byte of any record is written.
TEST_P(SealLanes, TamperedOpenManyLeavesOutputUntouched) {
  block_sealer sealer(derive_seal_keys(22));
  constexpr std::size_t count = 9;
  constexpr std::size_t record_bytes = 1052;
  constexpr std::size_t size = record_bytes - seal_overhead;
  std::vector<std::uint8_t> batch(count * record_bytes, 0);
  for (std::size_t r = 0; r < count; ++r) {
    const auto plain = pattern(size, 5, static_cast<unsigned>(r));
    std::copy(plain.begin(), plain.end(),
              batch.begin() + static_cast<std::ptrdiff_t>(
                                  r * record_bytes + seal_nonce_bytes));
  }
  sealer.seal_many(batch, record_bytes);

  const std::size_t group_bytes = 64 * GetParam();
  std::vector<std::size_t> flips = {0, 11, size + seal_nonce_bytes,
                                    record_bytes - 1};
  for (std::size_t offset = 0; offset < size; offset += group_bytes) {
    flips.push_back(seal_nonce_bytes + offset);
    flips.push_back(seal_nonce_bytes + std::min(size, offset + group_bytes) -
                    1);
  }
  for (const std::size_t victim : {std::size_t{0}, std::size_t{4},
                                   count - 1}) {
    for (const std::size_t at : flips) {
      auto tampered = batch;
      tampered[victim * record_bytes + at] ^= 0x20;
      std::vector<std::uint8_t> heads(count * 8, 0xcd);
      std::vector<std::uint8_t> bodies(count * (size - 8), 0xef);
      EXPECT_THROW(sealer.open_many(tampered, record_bytes, heads, bodies),
                   crypto_error)
          << "record " << victim << ", byte " << at;
      EXPECT_EQ(heads, std::vector<std::uint8_t>(count * 8, 0xcd))
          << "record " << victim << ", byte " << at;
      EXPECT_EQ(bodies, std::vector<std::uint8_t>(count * (size - 8), 0xef))
          << "record " << victim << ", byte " << at;

      std::vector<std::uint8_t> plain(count * size, 0xab);
      EXPECT_THROW(sealer.open_many(tampered, record_bytes, plain, {}),
                   crypto_error)
          << "record " << victim << ", byte " << at;
      EXPECT_EQ(plain, std::vector<std::uint8_t>(count * size, 0xab))
          << "record " << victim << ", byte " << at;
    }
  }
}

// With a zero-body head, records whose head is that word come back with
// zero bodies, without their bodies being decrypted, and the rest as a
// full open gives them; heads longer than the marker and bodies that
// start inside the first keystream block are covered.
TEST_P(SealLanes, ZeroBodyHeadOpensLikeAFullOpen) {
  constexpr std::uint64_t marker = 0xfeedfacecafebeefULL;
  for (const std::size_t record_bytes : {44u, 1052u, 2220u}) {
    const std::size_t size = record_bytes - seal_overhead;
    for (const std::size_t count : {1u, 9u, 17u, 65u}) {
      block_sealer sealer(derive_seal_keys(24));
      std::vector<std::uint8_t> batch(count * record_bytes, 0);
      for (std::size_t r = 0; r < count; ++r) {
        std::uint8_t* plain =
            batch.data() + r * record_bytes + seal_nonce_bytes;
        if (r % 3 == 1) {
          std::memcpy(plain, &marker, sizeof marker);  // body stays zero
        } else {
          const auto bytes = pattern(size, 9, static_cast<unsigned>(r));
          std::copy(bytes.begin(), bytes.end(), plain);
        }
      }
      sealer.seal_many(batch, record_bytes);
      for (const std::size_t h : {std::size_t{8}, std::size_t{24}}) {
        if (h > size) {
          continue;
        }
        std::vector<std::uint8_t> heads(count * h, 0x5a);
        std::vector<std::uint8_t> bodies(count * (size - h), 0x5a);
        sealer.open_many(batch, record_bytes, heads, bodies);
        std::vector<std::uint8_t> skip_heads(count * h, 0xa5);
        std::vector<std::uint8_t> skip_bodies(count * (size - h), 0xa5);
        sealer.open_many(batch, record_bytes, skip_heads, skip_bodies, marker);
        const std::string where = "record " + std::to_string(record_bytes) +
                                  ", count " + std::to_string(count) +
                                  ", head " + std::to_string(h);
        EXPECT_EQ(skip_heads, heads) << where;
        EXPECT_EQ(skip_bodies, bodies) << where;
        std::vector<std::uint8_t> head_only(count * h, 0xa5);
        sealer.open_many(batch, record_bytes, head_only, {}, marker);
        EXPECT_EQ(head_only, heads);
      }
    }
  }
  block_sealer sealer(derive_seal_keys(25));
  std::vector<std::uint8_t> batch(2 * 44, 0);
  sealer.seal_many(batch, 44);
  std::vector<std::uint8_t> short_heads(2 * 7), bodies(2 * 17);
  EXPECT_THROW(sealer.open_many(batch, 44, short_heads, bodies, marker),
               contract_error);
}

TEST(Seal, ManyRejectsMalformedBatches) {
  block_sealer sealer(derive_seal_keys(23));
  std::vector<std::uint8_t> batch(3 * 44, 0);
  EXPECT_THROW(sealer.seal_many(batch, 45), contract_error);
  EXPECT_THROW(sealer.seal_many(batch, seal_overhead - 1), contract_error);
  sealer.seal_many(batch, 44);

  std::vector<std::uint8_t> heads(3 * 8), bodies(3 * 16);
  EXPECT_THROW(sealer.open_many(batch, seal_overhead - 1, heads, bodies),
               crypto_error);
  EXPECT_THROW(sealer.open_many(batch, 45, heads, bodies), contract_error);
  std::vector<std::uint8_t> ragged(3 * 8 + 1);
  EXPECT_THROW(sealer.open_many(batch, 44, ragged, bodies), contract_error);
  std::vector<std::uint8_t> short_bodies(3 * 16 - 1);
  EXPECT_THROW(sealer.open_many(batch, 44, heads, short_bodies),
               contract_error);
  // Outputs may not overlap the sealed run, not even in place.
  EXPECT_THROW(sealer.open_many(batch, 44, std::span(batch).first(3 * 24), {}),
               contract_error);
  sealer.open_many(batch, 44, heads, bodies);
  sealer.open_many({}, 44, {}, {});
}

// --------------------------------------------------------------- csprng

TEST(ChaChaRng, DeterministicPerSeed) {
  chacha_rng a(std::uint64_t{11}), b(std::uint64_t{11});
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(ChaChaRng, StreamsIndependent) {
  chacha_rng a(std::uint64_t{11}, 0), b(std::uint64_t{11}, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(ChaChaRng, BitsLookBalanced) {
  chacha_rng rng(std::uint64_t{12});
  std::uint64_t ones = 0;
  constexpr int words = 10000;
  for (int i = 0; i < words; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(rng.next_u64()));
  }
  const double fraction =
      static_cast<double>(ones) / (64.0 * static_cast<double>(words));
  EXPECT_NEAR(fraction, 0.5, 0.005);
}

using ChaChaRngLanes = test::lane_width_test;
INSTANTIATE_TEST_SUITE_P(Widths, ChaChaRngLanes, test::lane_widths(),
                         test::lane_width_name);

// Captured when the generator drew one keystream block per refill;
// sixteen blocks per refill must yield the same stream in the same order.
TEST_P(ChaChaRngLanes, PinnedOutputs) {
  const std::uint64_t seed_2019[256] = {
      0x803a72781c4d2b8cULL, 0x18144a2df78b8875ULL, 0xf5d719b03e1eb337ULL,
      0x7fafc1cfd2f08b1bULL, 0x3d7fbedadd1449deULL, 0x5094be4c4f74b888ULL,
      0xb6590078ecb58127ULL, 0x37dce547d87e7aaeULL, 0xa468bce0a9639740ULL,
      0x1682f0a901763722ULL, 0xd1f30d47eab8022cULL, 0x60ebadc086a77913ULL,
      0x3aa552c1745e1341ULL, 0x1c15816f66a37617ULL, 0xe4337a95e6e4d922ULL,
      0x02417148a788b3a2ULL, 0xa834b3420a54c9ceULL, 0x89cc147736bd4a31ULL,
      0x068e89fd111678c6ULL, 0xe48afe851a2b9b72ULL, 0xb88542effe930cd5ULL,
      0x25ce6d4637294601ULL, 0xd645f681a62b0f56ULL, 0x31bad85c585a1586ULL,
      0x3c1603b6742d9104ULL, 0xe684d4565e6ee492ULL, 0x662ee5e76afd2e78ULL,
      0xcd58544b327dbeceULL, 0x560e5fcc69d6f035ULL, 0x5e7c5694be7fdf53ULL,
      0x51a3e1f59dbd4213ULL, 0xb77e09168821c243ULL, 0x0a44d5f5bacec198ULL,
      0x335b5fcc777d97c6ULL, 0x96095ddbd080b96eULL, 0x03dab5d5ba644b2cULL,
      0xdf263e0503ef4e54ULL, 0x64888ebf452cc3c0ULL, 0xe24cb3e6e84638cbULL,
      0xc6ee8fad3f5bc4a9ULL, 0x88be4eae5868286bULL, 0x98c86e8f673b0ea8ULL,
      0x14ec2e9dab8a45a7ULL, 0x26f673b56105af40ULL, 0x52536369d9c53dd7ULL,
      0xf94b05c74235f8baULL, 0xca42ca1fdd74a0daULL, 0x78babedde6dd89f2ULL,
      0x0c7f7f5551b9ec3fULL, 0x3a3e0153feaaaa62ULL, 0x79d0f86e0ee7ec5cULL,
      0xa5d286665091d15fULL, 0x2f5069f11335431eULL, 0xcd9f18ef727ee96bULL,
      0x8b727720dea727b6ULL, 0xd577a997f3784b5eULL, 0x3ba68e88e1008d4fULL,
      0x5d7723fe8e0726baULL, 0xb5c425ea26055684ULL, 0x40636f14ef818851ULL,
      0x57590ba9f3bfb198ULL, 0xd7c8c96d570f48a9ULL, 0x3f95029ac3dd3678ULL,
      0x2c23ac4a96a2c74cULL, 0x907431ae06221992ULL, 0xc523d8bb667a193aULL,
      0xcc74b13f2ba8d0c3ULL, 0xb85ff4a1b2365adbULL, 0xf438fce417858127ULL,
      0x42607318851a3a51ULL, 0x923e7b6b409668bdULL, 0x2b206f78baa81323ULL,
      0x6ed0cbcd7329cf49ULL, 0xad12b511c6f7d08dULL, 0xa3b91d3ffc93f772ULL,
      0x9c59a9c2a0238b88ULL, 0x57611fd6405ccee1ULL, 0xaf4a68d3879a8783ULL,
      0x1e9fe3a7e1b3047bULL, 0x5d96be50b84e2226ULL, 0x89403041a0197584ULL,
      0xbbbe79900d4b8a72ULL, 0x1ad12c2cbbe4bffdULL, 0x533e35f27644b8a5ULL,
      0x7b66b536eeeb38a0ULL, 0x7856eb4d62fa9065ULL, 0x1840e1776018b8b6ULL,
      0x1587f7325abee804ULL, 0x1af8e2fc7f5c0fd9ULL, 0x3adc5f4e1d40508dULL,
      0x3b4c1742148e3c06ULL, 0xca90cca819aad9f0ULL, 0x90043291252710a3ULL,
      0x0e9c4e71ee982596ULL, 0x1e64724b147e37a5ULL, 0xacd279f6206efdb5ULL,
      0xf9b71458122a647cULL, 0x62a8b4c346b0921aULL, 0x735339c997bb1f4aULL,
      0x4eb070aa3ac05e0aULL, 0xa97c4823b3810820ULL, 0xf13c0e6c7765c206ULL,
      0x372b4a4764acd8c1ULL, 0xb9add3f4f0b3a94bULL, 0xa10ac9ccb285105eULL,
      0xd3b4a65a3931c2b1ULL, 0x5537012c52defd2bULL, 0xa5516e74781090c9ULL,
      0x7da4b258a3e00e70ULL, 0xe6330c7d90e374c7ULL, 0x30e95d4dd8a2197cULL,
      0xfd2820fa71afe664ULL, 0xadcf9218fb6a7acfULL, 0xe02d1c64c08e87fbULL,
      0x9eedc5d2c06b35baULL, 0xcc13a9e0a38a872bULL, 0xdbe12518df55484cULL,
      0x4fc5cc736900915fULL, 0x04ba9f66a93f4007ULL, 0x9fed868adcc4b566ULL,
      0x13e93f4afe32f218ULL, 0x94087942b7f3da67ULL, 0x80c3ce3e21308a87ULL,
      0x4cb68ba53f534ffcULL, 0xccdeb28f6c0cf136ULL, 0xa4d0de899e3c5692ULL,
      0x62e5150105cc4f30ULL, 0x0757fc16ff3ce907ULL, 0x01b79441e591a66cULL,
      0x85fcdd6ad8fd5f6dULL, 0xe57468fb66035da9ULL, 0x61df9828ff5b500dULL,
      0xca80695e52256cc9ULL, 0x66ab06034d50ae16ULL, 0x8567ea377f28e370ULL,
      0x2478be9af3eb2c48ULL, 0x374f8db77a794f40ULL, 0x4919cfaa88999076ULL,
      0xca243a3317f093b9ULL, 0xebb9467217fbf88eULL, 0xa42a34f4d7657976ULL,
      0x55aa7077c3ac6875ULL, 0xf99bc74fd5f83f40ULL, 0x69d5a0b44cad3714ULL,
      0x9cbf199fef67aaedULL, 0x62ad4741137ea6dcULL, 0xa796a81daa5447e6ULL,
      0xf323b8f89cbc8b28ULL, 0x952494ecc918ced1ULL, 0x847d4530ba79dfdeULL,
      0x54cb44782bba4aa6ULL, 0x7af2a779854927fdULL, 0x78921af7668609b8ULL,
      0x6ab9922f70a551b1ULL, 0xa4e86f1cfd26bd2eULL, 0x4cac2a1b6535daf5ULL,
      0xb33716c5f8c450a9ULL, 0xbbc8a2f5f03848a7ULL, 0xfaf7af6099071ac6ULL,
      0xb44b1cb59a9fead7ULL, 0x27ac1b9f9043d186ULL, 0xb281424a82791f46ULL,
      0x205fc3ec09cb02f8ULL, 0x2f2ab831febe5927ULL, 0xf32535e6e6dc9cb2ULL,
      0x02ff320288997d61ULL, 0xf918540f14ea73b7ULL, 0x3a8b665d3e4ce566ULL,
      0xda008fbc11e84a67ULL, 0x47117953c01c3b1aULL, 0xecba650f59d615bbULL,
      0xb0284d33d81e41fcULL, 0x81bee885f8d7a4b8ULL, 0x922bec54f49508d5ULL,
      0x9d1692ceda2fb877ULL, 0x78ceb8c8decafabaULL, 0xdc94db93fe91be6bULL,
      0xbe459224dd0acb89ULL, 0xc701ed1a9eb727abULL, 0x0fa27b57546c63dcULL,
      0x4826a47b2207f6e7ULL, 0x5be2f71b533ba62dULL, 0x14f30d5a384b9d7bULL,
      0xae87ec3073d3e395ULL, 0x4bf0bd555e1de984ULL, 0x28ffc5527225fe72ULL,
      0x72b72f479ceaddc0ULL, 0x8063a6344f2154f2ULL, 0xa46c2ebe3056e5c2ULL,
      0x89eeeb7e9b95c9c5ULL, 0x678e6316454f8a95ULL, 0x45fa497736a06ddbULL,
      0x4067ab17e1e7daa0ULL, 0x409359d5f09d6aa3ULL, 0x4cb818750f802155ULL,
      0xfd5d8ef4279a92c3ULL, 0xb15d96bc845e5b0dULL, 0x4a03b76dd7ad950fULL,
      0x91d30c69051eb7fcULL, 0x8817e12de3990ac0ULL, 0x60e5657da6d2f8c8ULL,
      0x7a9ae8ce6af69aacULL, 0x7e073bcaeb309479ULL, 0x0ab6508edc4d6f8aULL,
      0x687ca43e5a31626cULL, 0x0374ff917f66c683ULL, 0x72dd4dd4a2c1e358ULL,
      0xa0829006894c5c73ULL, 0xdc9eff3d5a8f6218ULL, 0x139173e64d2ab1acULL,
      0xe6e6aa6d51823d60ULL, 0x0f18195d8b90af71ULL, 0x01a67b29aa682bd9ULL,
      0x162045bb9dbec6e5ULL, 0xf1a23116e7e19795ULL, 0x385548d0f065ad58ULL,
      0xd27b3105e01ec541ULL, 0x381bc27b8b4774a5ULL, 0x8f626da17d80e183ULL,
      0x2be7d06cdd30f348ULL, 0x6fbf1283b7ee7dd7ULL, 0x312b358687a3a0cbULL,
      0xcaf20bd6634dc305ULL, 0xf4c15462c9e9fe83ULL, 0x77988a43cd1ba95eULL,
      0x08fa6535c8424cbeULL, 0x17889193e94447ebULL, 0x372831b6570da52eULL,
      0xb394dfe2faddbb13ULL, 0x13afbb2cda222c38ULL, 0xcfd13c6bb9eaadceULL,
      0x22be814f503c4948ULL, 0x5803afbe463467d4ULL, 0x6c86fb7faa57f316ULL,
      0x475c89c50da68787ULL, 0xb7a30f289f093047ULL, 0xb8b409c9c0f58c2fULL,
      0x71d230adff23d81aULL, 0xd8115249b10b9799ULL, 0x6798cfc82758def8ULL,
      0x28b05dc4f913d30aULL, 0x456ddde9a756ee1dULL, 0x47c6789325f2ceb6ULL,
      0xb78fe68f5a49afefULL, 0xd8d1d9f9bfc86600ULL, 0xbb2e586265cd575dULL,
      0x4687ff5311ef594aULL, 0xd82e8761bdd3456bULL, 0xa590e0535daea870ULL,
      0x3f53a2500d6c9c1eULL, 0x36ae1a6a5aa1514eULL, 0x767f6fedc71e6587ULL,
      0x8ed5d7cb2c01f1d5ULL, 0x4185345980f57992ULL, 0x6212ab2585e0a5f1ULL,
      0x95aac4e9293b87c6ULL,
  };
  const std::uint64_t seed_7_stream_3[256] = {
      0x15dcbe291d0461b7ULL, 0x8c51109ee4d2c1c5ULL, 0x7571643ecdb719b7ULL,
      0xcd5d39b3321bf0deULL, 0xba159b16b34f9fd6ULL, 0xd6e34c1185282d91ULL,
      0x189c0ddcddf0306dULL, 0x3171bc971a79d1d3ULL, 0xb1dfd98c50725ed4ULL,
      0x2e4b1ec02bbbace4ULL, 0xca50797869de132eULL, 0x9d8a34aad2d9440aULL,
      0x82a8a7a521f32a53ULL, 0x0fec62d84c27efb4ULL, 0xa283a78fe7847b7eULL,
      0xa2fa2cf279e07126ULL, 0x12893ff0bf4d61d2ULL, 0xd6c7e2d080206923ULL,
      0x90ead8653786e612ULL, 0xb1b75eb1e6edc1e0ULL, 0xdf1b3df7d476e80bULL,
      0x8e3410c672fa7ce5ULL, 0x1defc134695be8b1ULL, 0x0087dad874a83759ULL,
      0x2a9dba0d11357384ULL, 0xed8862c36b9ad23bULL, 0x6cc9ca6d6b35f790ULL,
      0x86a36c1bada4b8a2ULL, 0xc44b806d567bef0cULL, 0xcac5ce1a682b46cdULL,
      0x94aa53149b714af0ULL, 0x90c829f660b022f5ULL, 0x82d193854e0e0b3cULL,
      0xdd9021646ee174d9ULL, 0xf506a170d5ea0eaaULL, 0x1d0165f88af0e960ULL,
      0xd1ea48c11dd5ae11ULL, 0xc8d06a5c3b609781ULL, 0x4301c4a221272b97ULL,
      0x11b30249ab965eb8ULL, 0x4d09d1158bb8b6c0ULL, 0x1573dc901a4c4734ULL,
      0x722781cd4b9c09c6ULL, 0x9602b4bdb33111e9ULL, 0x1a2bde9c5d5ac014ULL,
      0x02e3dfb37ea5e1aeULL, 0xd518165e726e1d18ULL, 0xdae943013f6a09e5ULL,
      0xfee096a0fd8fd388ULL, 0x30b85aac40bb3c1cULL, 0xcf8e0a7bf54d85dbULL,
      0x662c4c98057038ffULL, 0xd36aa26489f012c6ULL, 0x5d9425ec8389604bULL,
      0xbaa745f8a7a38f2aULL, 0xedc0d968d41a6c5dULL, 0xd7dbaa7970a6fa5fULL,
      0x0a5b4345ac7ecad9ULL, 0x1915cc4f7f3a2140ULL, 0x18ff73327123827bULL,
      0x500beecf69ad81baULL, 0xb93f5339596b02e0ULL, 0x5b09c0038fc549e3ULL,
      0xdc5733d8c53f4992ULL, 0xf97b1daaf89b3028ULL, 0xdeac6f5b6fbd182fULL,
      0x71d50b9b532b6de9ULL, 0x1a61f527d6b81e21ULL, 0xbe69b2ebe95845f5ULL,
      0x0f780c7cc503b276ULL, 0x7a94035c0da6dafeULL, 0x4705c68562ef285aULL,
      0xc5f791dd3c818714ULL, 0xbb203ec453653c69ULL, 0x6db2a6ec1cc2c01dULL,
      0xc6c4abf91b139f2dULL, 0x344b0664835f79deULL, 0xa005e1f73c299b93ULL,
      0x31dec2ce06de4093ULL, 0xc809b5ec3ab618d2ULL, 0x0b786cedb4445c2fULL,
      0x6f0633ddbc7c37adULL, 0x8565b02b46604bbfULL, 0x5957fa0482b3b7f0ULL,
      0xe67fd7a68f953778ULL, 0xc2361885e28cd537ULL, 0xc7416bdf0a005df3ULL,
      0x1d9a344cba1bd5c2ULL, 0x7cfb277398f6668fULL, 0x55c220680117725cULL,
      0x479efa6a9937fabbULL, 0xaad3ba39ff8888d4ULL, 0xbb09b379a029efaeULL,
      0xf809f0f186fd44b1ULL, 0x3c58bbb95228617bULL, 0x6fadacd439091000ULL,
      0x1339540b6edad6afULL, 0x75f0fd14abe17d0dULL, 0xd51f07e26c048f22ULL,
      0x9dabae9762d7a19cULL, 0xa8f0335fc94aa9b1ULL, 0x73fc3582b8f5d60cULL,
      0xc06f5280745bc074ULL, 0xe8be155209b4ab71ULL, 0xf53a275cfeaab9bbULL,
      0xd364985e69877ff8ULL, 0x4cb17dd494987138ULL, 0x015dc5f0db945e1eULL,
      0x3eef38a4ccad8cc8ULL, 0xc260652c661d20b3ULL, 0xd376cc1e66d3a96fULL,
      0xc3a33d99363233a8ULL, 0xe5663d172331cff0ULL, 0xbca76f28aea8cdd4ULL,
      0x02829892986f5da6ULL, 0x1979b57918ccfd41ULL, 0x58f3a94b710d1587ULL,
      0x299afed5ce979b43ULL, 0xf1bcd13adf33ad7eULL, 0xb0a05ec9778a54e8ULL,
      0xbfb67029b1a21078ULL, 0x4a9b77a45d703530ULL, 0x392386b3da95bf89ULL,
      0xdf51ec1d916af907ULL, 0x3544f96bba9cd883ULL, 0x70cbc129b9739c27ULL,
      0x224a42963e2b3d73ULL, 0x074d625c15c93046ULL, 0xaa471329b4cf9209ULL,
      0x7ab74455cf1304c2ULL, 0xbea59f4a7e11c6a7ULL, 0x69a48669e8aa4240ULL,
      0x07d9c45ba363d7ecULL, 0x29fd5aa6ed3c5d9aULL, 0xae123350857181d8ULL,
      0x0506152b393538f2ULL, 0x3d5100b4b5ca38beULL, 0x22425125c8e352ffULL,
      0xc57fe9b33097a92bULL, 0x539ba73442cf6677ULL, 0xf19887684abf23f6ULL,
      0xae55c44ef028a149ULL, 0x431a49523d920327ULL, 0xba93f28e24e8d5e2ULL,
      0x8d4fc00c6664055cULL, 0x6323237f0a82496bULL, 0x08a404ffb0bf415fULL,
      0x6039b7c622b75d99ULL, 0x2aa518907189e2f2ULL, 0xfd6f84ffd7fe3c73ULL,
      0x279a5e1f1a2dbd72ULL, 0xd81904b388752361ULL, 0xd1dc8b232c469ed9ULL,
      0x58623e2792ed15dcULL, 0x68b29b8868e62a24ULL, 0x328457d82958f19dULL,
      0xacb62723ada66f16ULL, 0x8c570113c6b6c782ULL, 0x15c6d622b5bd72e1ULL,
      0x70f45cc3c780c24dULL, 0xebd1d6a595ecb80bULL, 0x3e06f01c490931c8ULL,
      0xab26ea8921f7ed59ULL, 0xc3899fb8bd3e5ea8ULL, 0xdaae7f6647b44a6cULL,
      0x81352bb2eedf8475ULL, 0x693249b873852e9eULL, 0xe42b419ea2c0bbfdULL,
      0x7c57faa1d88a1662ULL, 0xbb2e8a5ff35c3ef9ULL, 0xf13fca0dfb5021ffULL,
      0x179c4b82a8ec02c8ULL, 0x076ea3e0c1113520ULL, 0xb2d99e7ca3176467ULL,
      0x3f769ba9b2770a0aULL, 0x7f0d71d5029deaf8ULL, 0x4907e54d10d0fc42ULL,
      0x07327f925cc0fc44ULL, 0x9c08be6532789d9fULL, 0x8547eba5863d6c7fULL,
      0xccf9249151a34701ULL, 0x4ce47ffd40d8c7d0ULL, 0x46bd1cec2810a837ULL,
      0xc366f0a3a27fd5c0ULL, 0xc1865ab11828ea2bULL, 0xbffe52cb5b761226ULL,
      0xa6d4f03f3b7e2243ULL, 0x313442bd93a1bfe9ULL, 0x8ae4899565ee398fULL,
      0xbd72f3d75e3e8ecbULL, 0x424ca19cb729b591ULL, 0x18fb8cec644bd29aULL,
      0xcaf665d57e17bc45ULL, 0xcf7531204207ff86ULL, 0x5608e669ba42acb5ULL,
      0xf5c350b7e7f9f714ULL, 0x73732aa55b8058cbULL, 0xf30ffe5a8f81d2b4ULL,
      0x8059431d1c25fb2dULL, 0xcad14ae082a4f399ULL, 0x02c90006f4b590b5ULL,
      0x11b164b662727089ULL, 0x21256534ff235d51ULL, 0x23b398bc7b2139b9ULL,
      0x755aa72c86804f63ULL, 0xc88b021e2165aa45ULL, 0x6904d223d61cf31eULL,
      0x6b9e724799cb3e01ULL, 0x35bf0b451e4a1c6fULL, 0x84106b2fd0e1c074ULL,
      0x09a617ab562df4ecULL, 0xf116eebfbaefa2c3ULL, 0xf330a38aa73169eeULL,
      0x1e4a8693628de553ULL, 0x7199086b85f16bf1ULL, 0xabd8b07278e460f5ULL,
      0x00b30813ee246ff2ULL, 0xb17ee94acb18c701ULL, 0xeaebbf6270b35c53ULL,
      0x683bc20671eba84cULL, 0x5656d8d63d209c7aULL, 0x83b965fa2438e286ULL,
      0x7e18ebc20e55ea74ULL, 0x22914ccff306bdbeULL, 0x1101a4e95d49f135ULL,
      0xcc259eb5647e9cb3ULL, 0xf857f624b12ab9baULL, 0xf2a104a54234a9cdULL,
      0xf000068b57c07ac5ULL, 0x6204eedeb7c7d225ULL, 0x64246f5826e4a3e8ULL,
      0xd1ae6ea5a09498e6ULL, 0xf48f2fd6c0c4a7a7ULL, 0xb1eebdcdef60051cULL,
      0x338118620a7a3157ULL, 0xa1bee39015e8812aULL, 0x398fb9de621f3480ULL,
      0xb0b0e68bf0967e41ULL, 0x16c5e453dffc7c3bULL, 0xa37f61c75a28be12ULL,
      0x5bfcb4b25c5400d9ULL, 0xa5ef6400c759744aULL, 0xb18ec64fdb6f9ab1ULL,
      0xb5d1b79c0fe90edbULL, 0x03a827fddcefa1fcULL, 0xa6547ebc7413db4cULL,
      0x0c6659cd4dcdd2d7ULL, 0x16287158832b57f6ULL, 0x9a14e248717ae3b4ULL,
      0xb53cf4c3c56a544fULL, 0x03b770ad4dffa8caULL, 0x8c581ff3481f6f8dULL,
      0xca6b50022c4cb13aULL, 0xcb539dc45f12ff82ULL, 0x6d958cf7b99851d6ULL,
      0x924781506896745cULL,
  };
  chacha_rng a(std::uint64_t{2019}), b(std::uint64_t{7}, 3);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(a.next_u64(), seed_2019[i]) << "chacha_rng(2019) output " << i;
    ASSERT_EQ(b.next_u64(), seed_7_stream_3[i])
        << "chacha_rng(7, 3) output " << i;
  }
}

TEST(DeriveSealKeys, DistinctSeedsDistinctKeys) {
  const seal_keys a = derive_seal_keys(100);
  const seal_keys b = derive_seal_keys(101);
  EXPECT_NE(a.encryption_key, b.encryption_key);
  EXPECT_NE(a.mac_key, b.mac_key);
}

}  // namespace
}  // namespace horam::crypto
