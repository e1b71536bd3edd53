#include "oram/common/block_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/contracts.h"

namespace horam::oram {

static_assert(std::endian::native == std::endian::little &&
                  sizeof(block_id) == 8,
              "decode_many() decrypts ids straight into block_id words");

namespace {

thread_local detail::codec_key_log* active_key_log = nullptr;

/// Writes the plaintext form id || payload || zero padding into `plain`.
/// `payload` may already sit at its place in `plain`.
void write_plain(block_id id, std::span<const std::uint8_t> payload,
                 std::span<std::uint8_t> plain) {
  for (int i = 0; i < 8; ++i) {
    plain[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  if (payload.data() != plain.data() + 8) {
    std::copy(payload.begin(), payload.end(), plain.begin() + 8);
  }
  std::fill(plain.begin() + 8 + static_cast<std::ptrdiff_t>(payload.size()),
            plain.end(), std::uint8_t{0});
}

}  // namespace

detail::codec_key_log::codec_key_log() : outer_(active_key_log) {
  active_key_log = this;
}

detail::codec_key_log::~codec_key_log() { active_key_log = outer_; }

block_codec::block_codec(std::size_t payload_bytes, bool seal,
                         std::uint64_t key_seed)
    : payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(8 + payload_bytes +
                    (seal ? crypto::seal_overhead : 0)),
      sealer_(crypto::derive_seal_keys(key_seed)) {
  expects(payload_bytes > 0, "payload must be non-empty");
  if (seal && active_key_log != nullptr) {
    active_key_log->fingerprints_.push_back(crypto::siphash24(
        crypto::siphash_key{},
        crypto::derive_seal_keys(key_seed).encryption_key));
  }
}

void block_codec::encode(block_id id, std::span<const std::uint8_t> payload,
                         std::span<std::uint8_t> record_out) {
  expects(record_out.size() >= record_bytes_, "record buffer too small");
  expects(payload.size() <= payload_bytes_, "payload larger than block");
  expects(id != dummy_block_id || payload.empty(),
          "a dummy is encoded with an empty payload");

  // The plaintext is assembled where the ciphertext goes and sealed there.
  const std::span<std::uint8_t> plain = record_out.subspan(
      seal_ ? crypto::seal_nonce_bytes : 0, 8 + payload_bytes_);
  write_plain(id, payload, plain);

  if (seal_) {
    sealer_.seal(plain, record_out.first(record_bytes_));
  }
}

void block_codec::encode_dummy(std::span<std::uint8_t> record_out) {
  encode(dummy_block_id, {}, record_out);
}

void block_codec::encode_many(std::span<const block_ref> blocks,
                              std::span<std::uint8_t> records_out) {
  expects(records_out.size() == blocks.size() * record_bytes_,
          "encode_many: one record per block");
  const std::size_t offset = seal_ ? crypto::seal_nonce_bytes : 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    expects(blocks[i].payload.size() <= payload_bytes_,
            "payload larger than block");
    expects(blocks[i].id != dummy_block_id || blocks[i].payload.empty(),
            "a dummy is encoded with an empty payload");
    write_plain(blocks[i].id, blocks[i].payload,
                records_out.subspan(i * record_bytes_ + offset,
                                    8 + payload_bytes_));
  }
  if (seal_) {
    sealer_.seal_many(records_out, record_bytes_);
  }
}

std::span<std::uint8_t> block_codec::payload_in(
    std::span<std::uint8_t> record) const {
  expects(record.size() == record_bytes_, "payload_in: one whole record");
  return record.subspan((seal_ ? crypto::seal_nonce_bytes : 0) + 8,
                        payload_bytes_);
}

void block_codec::encode_dummies(std::span<std::uint8_t> records_out) {
  expects(records_out.size() % record_bytes_ == 0,
          "encode_dummies: whole records only");
  const std::size_t offset = seal_ ? crypto::seal_nonce_bytes : 0;
  for (std::size_t at = 0; at < records_out.size(); at += record_bytes_) {
    write_plain(dummy_block_id, {},
                records_out.subspan(at + offset, 8 + payload_bytes_));
  }
  if (seal_) {
    sealer_.seal_many(records_out, record_bytes_);
  }
}

void block_codec::decode_many(std::span<const std::uint8_t> records,
                              std::span<block_id> ids_out,
                              std::span<std::uint8_t> payloads_out) const {
  const std::size_t count = ids_out.size();
  expects(records.size() == count * record_bytes_,
          "decode_many: one record per id");
  expects(payloads_out.empty() || payloads_out.size() == count * payload_bytes_,
          "decode_many: one payload per id");
  const std::span<std::uint8_t> ids(
      reinterpret_cast<std::uint8_t*>(ids_out.data()), 8 * count);
  if (seal_) {
    sealer_.open_many(records, record_bytes_, ids, payloads_out,
                      dummy_block_id);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* record = records.data() + i * record_bytes_;
    std::memcpy(ids.data() + 8 * i, record, 8);
    if (!payloads_out.empty()) {
      std::memcpy(payloads_out.data() + i * payload_bytes_, record + 8,
                  payload_bytes_);
    }
  }
}

block_id block_codec::decode(std::span<const std::uint8_t> record,
                             std::span<std::uint8_t> payload_out) const {
  expects(record.size() >= record_bytes_, "record buffer too small");
  if (!payload_out.empty()) {
    expects(payload_out.size() >= payload_bytes_,
            "payload buffer too small");
    payload_out = payload_out.first(payload_bytes_);
  }

  std::array<std::uint8_t, 8> id_bytes{};
  if (seal_) {
    sealer_.open(record.first(record_bytes_), id_bytes, payload_out);
  } else {
    std::copy_n(record.begin(), 8, id_bytes.begin());
    std::copy_n(record.begin() + 8, payload_out.size(), payload_out.begin());
  }

  block_id id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<block_id>(id_bytes[static_cast<std::size_t>(i)])
          << (8 * i);
  }
  return id;
}

}  // namespace horam::oram
