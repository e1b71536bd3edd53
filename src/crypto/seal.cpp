#include "crypto/seal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <functional>

#include "crypto/chacha_lanes.h"
#include "crypto/sip_core.h"
#include "util/contracts.h"

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "nonce and tag words are stored in host byte order");

namespace {

// Sealed payloads start at keystream block 1, as in RFC 8439's AEAD.
constexpr std::uint32_t first_payload_block = 1;

// open() decrypts through a stack window of whole keystream blocks that
// holds a 1 KiB-payload record (8-byte id + 1024 bytes = 17 blocks).
constexpr std::size_t open_window_bytes = 17 * 64;

/// SipHash of nonce || ciphertext as side work of the keystream pass:
/// each call absorbs up to `budget` words of the bytes that are final,
/// `lead` bytes plus those the kernel has written.
struct mac_pass {
  sip_stream sip;
  std::size_t lead;
  std::size_t budget;

  [[gnu::always_inline]] void operator()(std::size_t done) noexcept {
    sip.absorb(lead + done, budget);
  }
};

/// Whether `span` is empty, starts at `in_place`, or shares no byte with
/// `buffer`: the aliasing seal() and open() accept.
bool in_place_or_disjoint(std::span<const std::uint8_t> span,
                          const std::uint8_t* in_place,
                          std::span<const std::uint8_t> buffer) {
  const std::less<const std::uint8_t*> before;
  return span.empty() || span.data() == in_place ||
         !before(span.data(), buffer.data() + buffer.size()) ||
         !before(buffer.data(), span.data() + span.size());
}

/// Words per side-work call that spread `bytes` of MAC input evenly over
/// the calls of `groups` kernel groups.
template <int L>
std::size_t mac_budget(std::size_t bytes, std::size_t groups) {
  const std::size_t calls = groups * chacha_lanes<L>::side_calls;
  return (bytes / 8 + calls - 1) / calls;
}

/// keystream_blocks() filter that keeps every record.
constexpr auto every_record = [](std::size_t) { return true; };

// seal_many() works through a batch this many records at a time, so a
// slice's ciphertext is still in cache when its MACs are computed.
constexpr std::size_t seal_slice_records = 64;

/// The keystream blocks [first_block, end_block) of each of `count`
/// sealed records laid `stride` bytes apart for which wanted(r) holds, L
/// (record, block) pairs per kernel group: calls apply(r, b, keystream)
/// with the 64 keystream bytes of block b of record r, under the nonce
/// the record starts with. Pairs run record by record, so a 17-block
/// record costs 17 blocks of a group, not a group and a half.
template <int L, class Wanted, class Apply>
[[gnu::always_inline]] inline void keystream_blocks(
    const chacha_key& key, const std::uint8_t* records, std::size_t count,
    std::size_t stride, std::size_t first_block, std::size_t end_block,
    const Wanted& wanted, const Apply& apply) {
  using kernel = chacha_lanes<L>;
  typename kernel::vec state[16] = {};
  typename kernel::vec keystream[16];
  kernel::key_state(key, state);
  // Per lane: block counter, then the three nonce words.
  std::uint32_t words[4][L] = {};
  std::size_t record[L];
  std::size_t block[L];
  int used = 0;
  no_side_work none;
  const auto flush = [&]() __attribute__((always_inline)) {
    for (int i = 0; i < 4; ++i) {
      std::memcpy(&state[12 + i], words[i], sizeof state[0]);
    }
    kernel::block_group(state, keystream, none, 0);
    const auto* ks = reinterpret_cast<const std::uint8_t*>(keystream);
    for (int j = 0; j < used; ++j) {
      apply(record[j], block[j], ks + 64 * j);
    }
    used = 0;
  };
  for (std::size_t r = 0; r < count; ++r) {
    if (!wanted(r)) {
      continue;
    }
    std::uint32_t nonce[3];
    std::memcpy(nonce, records + r * stride, sizeof nonce);
    for (std::size_t b = first_block; b < end_block; ++b) {
      words[0][used] = static_cast<std::uint32_t>(first_payload_block + b);
      words[1][used] = nonce[0];
      words[2][used] = nonce[1];
      words[3][used] = nonce[2];
      record[used] = r;
      block[used] = b;
      if (++used == L) {
        flush();
      }
    }
  }
  if (used != 0) {
    flush();
  }
}

/// SipHash of the first `mac_bytes` bytes of each of `count` records
/// laid `stride` bytes apart, sip_lanes<L>::buffers records per call of
/// the vector core: calls on_tag(r, tag) for every record in order.
template <int L, class OnTag>
[[gnu::always_inline]] inline void mac_records(const siphash_key& key,
                                               const std::uint8_t* records,
                                               std::size_t count,
                                               std::size_t stride,
                                               std::size_t mac_bytes,
                                               const OnTag& on_tag) {
  using sip = sip_lanes<L>;
  for (std::size_t first = 0; first < count; first += sip::buffers) {
    const std::size_t n = std::min<std::size_t>(sip::buffers, count - first);
    // Lanes past the last record hash this call's first one again.
    const std::uint8_t* data[sip::buffers];
    for (std::size_t i = 0; i < sip::buffers; ++i) {
      data[i] = records + (first + (i < n ? i : 0)) * stride;
    }
    std::uint64_t tags[sip::buffers];
    sip::hash(key, data, mac_bytes, tags);
    for (std::size_t i = 0; i < n; ++i) {
      on_tag(first + i, tags[i]);
    }
  }
}

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
  std::uint8_t* ciphertext = out.data() + seal_nonce_bytes;
  expects(in_place_or_disjoint(plaintext, ciphertext, out),
          "seal: plaintext partially overlaps the sealed buffer");

  // Nonce: 8-byte counter || 4 zero bytes. Unique per seal per instance.
  chacha_nonce nonce{};
  const std::uint64_t n = nonce_counter_++;
  std::memcpy(nonce.data(), &n, sizeof n);
  std::memcpy(out.data(), nonce.data(), nonce.size());

  // One pass: the MAC over nonce || ciphertext hashes group g - 1's
  // ciphertext while group g's keystream is computed.
  std::uint64_t tag = 0;
  with_lanes([&]<int L>(lanes<L>) __attribute__((always_inline)) {
    mac_pass mac{sip_stream(keys_.mac_key, out.data(), seal_nonce_bytes + size),
                 seal_nonce_bytes,
                 mac_budget<L>(chacha_lanes<L>::group_bytes, 1)};
    chacha_lanes<L>::stream(keys_.encryption_key, nonce, first_payload_block,
                            plaintext.data(), ciphertext, size, mac);
    tag = mac.sip.finish();
  });
  std::memcpy(out.data() + seal_nonce_bytes + size, &tag, sizeof tag);
}

void block_sealer::seal_many(std::span<std::uint8_t> records,
                             std::size_t record_bytes) {
  expects(record_bytes >= seal_overhead &&
              records.size() % record_bytes == 0,
          "seal_many: records must be whole records of at least "
          "seal_overhead bytes");
  const std::size_t count = records.size() / record_bytes;
  const std::size_t size = record_bytes - seal_overhead;
  const std::size_t blocks = (size + 63) / 64;

  with_lanes([&]<int L>(lanes<L>) __attribute__((always_inline)) {
    for (std::size_t first = 0; first < count; first += seal_slice_records) {
      const std::size_t n = std::min(seal_slice_records, count - first);
      std::uint8_t* slice = records.data() + first * record_bytes;
      // Nonces in record order: the i-th record gets the i-th next one,
      // as if seal() had run record by record.
      for (std::size_t r = 0; r < n; ++r) {
        const std::uint64_t nonce = nonce_counter_++;
        std::uint8_t* record = slice + r * record_bytes;
        std::memcpy(record, &nonce, sizeof nonce);
        std::memset(record + sizeof nonce, 0, seal_nonce_bytes - sizeof nonce);
      }
      keystream_blocks<L>(
          keys_.encryption_key, slice, n, record_bytes, 0, blocks,
          every_record,
          [&](std::size_t r, std::size_t b, const std::uint8_t* ks)
              __attribute__((always_inline)) {
                std::uint8_t* text =
                    slice + r * record_bytes + seal_nonce_bytes + 64 * b;
                chacha_lanes<L>::xor_bytes(
                    ks, text, text, std::min<std::size_t>(64, size - 64 * b));
              });
      mac_records<L>(keys_.mac_key, slice, n, record_bytes,
                     seal_nonce_bytes + size,
                     [&](std::size_t r, std::uint64_t tag) {
                       std::memcpy(slice + r * record_bytes +
                                       seal_nonce_bytes + size,
                                   &tag, sizeof tag);
                     });
    }
  });
}

void block_sealer::open_many(std::span<const std::uint8_t> sealed,
                             std::size_t record_bytes,
                             std::span<std::uint8_t> heads,
                             std::span<std::uint8_t> bodies,
                             std::optional<std::uint64_t> zero_body_head)
    const {
  if (record_bytes < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  expects(sealed.size() % record_bytes == 0,
          "open_many: sealed must be whole records");
  const std::size_t count = sealed.size() / record_bytes;
  if (count == 0) {
    expects(heads.empty() && bodies.empty(),
            "open_many: output for an empty batch");
    return;
  }
  const std::size_t size = record_bytes - seal_overhead;
  const std::size_t h = heads.size() / count;
  expects(heads.size() % count == 0 && h <= size &&
              (bodies.empty() || bodies.size() == count * (size - h)),
          "open_many: heads and bodies must split every plaintext");
  expects(in_place_or_disjoint(heads, nullptr, sealed) &&
              in_place_or_disjoint(bodies, nullptr, sealed),
          "open_many: output overlaps the sealed records");
  expects(!zero_body_head || h >= sizeof(std::uint64_t),
          "open_many: a zero-body head needs 8-byte heads");
  const std::size_t end = bodies.empty() ? h : size;
  const std::size_t body_bytes = size - h;
  const std::size_t mac_bytes = seal_nonce_bytes + size;
  const std::size_t end_block = (end + 63) / 64;
  // Without a zero-body head every block is opened in the first pass;
  // with one, the first pass stops after the heads.
  const std::size_t head_blocks =
      zero_body_head ? std::min(end_block, (h + 63) / 64) : end_block;
  const auto has_body = [&](std::size_t r) {
    std::uint64_t head = 0;
    std::memcpy(&head, heads.data() + r * h, sizeof head);
    return head != *zero_body_head;
  };

  with_lanes([&]<int L>(lanes<L>) __attribute__((always_inline)) {
    // Every MAC first: a failure anywhere leaves every output untouched.
    bool authentic = true;
    mac_records<L>(keys_.mac_key, sealed.data(), count, record_bytes,
                   mac_bytes, [&](std::size_t r, std::uint64_t tag) {
                     std::uint64_t stored = 0;
                     std::memcpy(&stored,
                                 sealed.data() + r * record_bytes + mac_bytes,
                                 sizeof stored);
                     authentic = authentic && stored == tag;
                   });
    if (!authentic) {
      throw crypto_error("MAC verification failed: block tampered or corrupt");
    }
    const auto decrypt = [&](std::size_t r, std::size_t b,
                             const std::uint8_t* ks)
        __attribute__((always_inline)) {
          const std::size_t pos = 64 * b;
          const std::size_t len = std::min<std::size_t>(64, end - pos);
          const std::uint8_t* text =
              sealed.data() + r * record_bytes + seal_nonce_bytes + pos;
          const std::size_t to_head = pos < h ? std::min(len, h - pos) : 0;
          if (to_head != 0) {
            chacha_lanes<L>::xor_bytes(ks, text, heads.data() + r * h + pos,
                                       to_head);
          }
          if (to_head != len) {
            chacha_lanes<L>::xor_bytes(
                ks + to_head, text + to_head,
                bodies.data() + r * body_bytes + (pos + to_head - h),
                len - to_head);
          }
        };
    keystream_blocks<L>(keys_.encryption_key, sealed.data(), count,
                        record_bytes, 0, head_blocks, every_record, decrypt);
    if (head_blocks == end_block) {
      return;
    }
    // The MAC vouches that a record with the zero-body head was sealed
    // as such, so its body is known without decrypting it.
    for (std::size_t r = 0; r < count; ++r) {
      if (!has_body(r)) {
        std::memset(bodies.data() + r * body_bytes, 0, body_bytes);
      }
    }
    keystream_blocks<L>(keys_.encryption_key, sealed.data(), count,
                        record_bytes, head_blocks, end_block, has_body,
                        decrypt);
  });
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
  const std::uint8_t* ciphertext = sealed.data() + seal_nonce_bytes;
  expects(in_place_or_disjoint(head, ciphertext, sealed) &&
              in_place_or_disjoint(body, ciphertext + h, sealed),
          "open: output partially overlaps the sealed buffer");
  const std::size_t end = body.empty() ? h : size;
  const std::size_t mac_bytes = seal_nonce_bytes + size;
  std::uint64_t stored_tag = 0;
  std::memcpy(&stored_tag, sealed.data() + mac_bytes, sizeof stored_tag);
  chacha_nonce nonce{};
  std::memcpy(nonce.data(), sealed.data(), nonce.size());

  // Plaintext bytes [pos, pos + len) sit in the window; copy them out.
  std::array<std::uint8_t, open_window_bytes> window;
  const auto scatter = [&](std::size_t pos, std::size_t len) {
    const std::size_t to_head = pos < h ? std::min(len, h - pos) : 0;
    if (to_head != 0) {
      std::memcpy(head.data() + pos, window.data(), to_head);
    }
    if (to_head != len) {
      std::memcpy(body.data() + (pos + to_head - h),
                  window.data() + to_head, len - to_head);
    }
  };

  // First window: decrypt while the whole record is hashed, then check
  // the MAC before any output byte is written. Bytes past the window
  // are decrypted afterwards, a window at a time.
  with_lanes([&]<int L>(lanes<L>) __attribute__((always_inline)) {
    using kernel = chacha_lanes<L>;
    const std::size_t first = std::min(end, open_window_bytes);
    const std::size_t groups =
        std::max<std::size_t>(1, (first + kernel::group_bytes - 1) /
                                     kernel::group_bytes);
    mac_pass mac{sip_stream(keys_.mac_key, sealed.data(), mac_bytes),
                 mac_bytes, mac_budget<L>(mac_bytes, groups)};
    kernel::stream(keys_.encryption_key, nonce, first_payload_block,
                   ciphertext, window.data(), first, mac);
    if (mac.sip.finish() != stored_tag) {
      throw crypto_error("MAC verification failed: block tampered or corrupt");
    }
    scatter(0, first);
    no_side_work none;
    for (std::size_t pos = first; pos < end; pos += open_window_bytes) {
      const std::size_t len = std::min(end - pos, open_window_bytes);
      kernel::stream(keys_.encryption_key, nonce,
                     static_cast<std::uint32_t>(first_payload_block + pos / 64),
                     ciphertext + pos, window.data(), len, none);
      scatter(pos, len);
    }
  });
}

}  // namespace horam::crypto
