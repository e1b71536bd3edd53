// Encoding of logical blocks into fixed-size store records.
//
// Record layout (plaintext form): 8-byte little-endian block id followed
// by the payload. With sealing enabled the whole plaintext is wrapped by
// crypto::block_sealer (nonce || ciphertext || mac), so records on
// untrusted stores reveal nothing — in particular not whether they are
// dummies — and are integrity-protected.
//
// Sealing can be disabled for large benchmark runs: records are stored
// in the clear, but callers still charge the modelled crypto time, so
// virtual-time results are identical.
//
// Neither direction allocates. encode() writes id || payload straight
// into the record's ciphertext region and seals it in place; decode()
// verifies the MAC over the whole record, then decrypts the id into a
// stack word and the payload into the caller's buffer.
//
// encode_many() and decode_many() are the batch forms over a run of
// back-to-back records, such as a Path ORAM path: one seal_many() or
// open_many() call (crypto/seal.h), with the same bytes as the
// one-record forms called in order. decode_many() checks every
// record's MAC before it writes any id or payload.
//
// Zero-body rule: a dummy is only ever encoded with an empty payload, so
// its body is all zeros; encode() and encode_many() reject anything else
// (contract_error). decode_many() relies on it: once every MAC holds, it
// decrypts each record's first keystream block, which carries the id,
// and the rest only for real records; a dummy's payload is zero-filled.
// Host time therefore varies with the number of real records in a run,
// as it already did wherever callers branch on real vs dummy (stash
// insertion, the hier probe). The virtual clock does not: callers charge
// the modelled crypto time for every record either way.
#ifndef HORAM_ORAM_COMMON_BLOCK_CODEC_H
#define HORAM_ORAM_COMMON_BLOCK_CODEC_H

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/seal.h"
#include "oram/common/types.h"

namespace horam::oram {

/// Encodes and decodes (id, payload) pairs to fixed-size records.
class block_codec {
 public:
  /// `payload_bytes` is the application payload per block; `seal` turns
  /// real encryption + MAC on; `key_seed` derives the keys.
  block_codec(std::size_t payload_bytes, bool seal, std::uint64_t key_seed);

  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  [[nodiscard]] bool sealing() const noexcept { return seal_; }

  /// Encodes a block into `record_out` (record_bytes long). A dummy
  /// block is encoded by passing dummy_block_id and an empty payload (a
  /// non-empty one throws contract_error); a short payload is
  /// zero-padded. `payload` must not overlap `record_out`.
  void encode(block_id id, std::span<const std::uint8_t> payload,
              std::span<std::uint8_t> record_out);

  /// Convenience for dummy records.
  void encode_dummy(std::span<std::uint8_t> record_out);

  /// One block of an encode_many() batch: dummy_block_id with an empty
  /// payload for a dummy; a short payload is zero-padded.
  struct block_ref {
    block_id id = dummy_block_id;
    std::span<const std::uint8_t> payload;
  };

  /// Encodes blocks[i] into record i of `records_out`, which holds
  /// exactly blocks.size() back-to-back records, in one batch. Record i
  /// takes the nonce encode() would give the i-th of the same calls, so
  /// the bytes are identical. A payload is either disjoint from
  /// `records_out` or exactly payload_in(record i), the bytes record i
  /// already holds its payload plaintext in.
  void encode_many(std::span<const block_ref> blocks,
                   std::span<std::uint8_t> records_out);

  /// The bytes of `record` (record_bytes long) that encode() fills with
  /// the payload plaintext before sealing. A caller that writes a payload
  /// here and passes this span to encode_many() re-encodes the record in
  /// place, with no copy of the payload elsewhere.
  [[nodiscard]] std::span<std::uint8_t> payload_in(
      std::span<std::uint8_t> record) const;

  /// Fills `records_out` (whole records) with dummy records in one
  /// batch: the bytes of encode_dummy() on each record in order.
  void encode_dummies(std::span<std::uint8_t> records_out);

  /// Decodes ids_out.size() back-to-back records: ids_out[i] gets record
  /// i's id and, unless `payloads_out` is empty, payloads_out[i ·
  /// payload_bytes, (i + 1) · payload_bytes) its payload (zeros for a
  /// dummy, whose body is not decrypted). When sealing, every record's
  /// MAC is checked before any output is written: on
  /// crypto::crypto_error, ids_out and payloads_out are untouched.
  void decode_many(std::span<const std::uint8_t> records,
                   std::span<block_id> ids_out,
                   std::span<std::uint8_t> payloads_out) const;

  /// Decodes a record; returns the block id (dummy_block_id for
  /// dummies) and writes the payload into `payload_out` if non-empty
  /// (at least payload_bytes long). Throws crypto::crypto_error on MAC
  /// failure when sealing, before `payload_out` is touched.
  block_id decode(std::span<const std::uint8_t> record,
                  std::span<std::uint8_t> payload_out) const;

 private:
  std::size_t payload_bytes_;
  bool seal_;
  std::size_t record_bytes_;
  crypto::block_sealer sealer_;
};

namespace detail {

/// For tests: while alive, collects a fingerprint of the encryption key
/// of every sealing block_codec constructed on the calling thread.
/// Every sealer's nonce counter starts at 0, so two codecs with equal
/// fingerprints would reuse ChaCha20 keystream.
class codec_key_log {
 public:
  codec_key_log();
  ~codec_key_log();
  codec_key_log(const codec_key_log&) = delete;
  codec_key_log& operator=(const codec_key_log&) = delete;

  [[nodiscard]] const std::vector<std::uint64_t>& fingerprints()
      const noexcept {
    return fingerprints_;
  }

 private:
  friend class oram::block_codec;

  codec_key_log* outer_;
  std::vector<std::uint64_t> fingerprints_;
};

}  // namespace detail

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_BLOCK_CODEC_H
