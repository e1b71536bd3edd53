// Authenticated block sealing: encrypt-then-MAC with ChaCha20 + SipHash.
//
// Every block leaving the trusted control layer is sealed under a fresh
// nonce, so two ciphertexts of the same plaintext are unlinkable — the
// property that lets H-ORAM rewrite unmodified data during path
// write-back and shuffles without revealing that nothing changed.
//
// Sealed layout: nonce (12 bytes) || ciphertext || mac (8 bytes), the MAC
// covering nonce || ciphertext. seal() and open() write into caller
// spans and allocate nothing. Each may run in place: the plaintext may
// be the very bytes at sealed offset seal_nonce_bytes, so a record can
// be filled with its plaintext and sealed where it lies.
//
// Each direction is one pass over the record: SipHash runs as side work
// of the ChaCha20 kernel (crypto/chacha_lanes.h). seal() hashes the
// ciphertext of one keystream group while the next group's keystream is
// computed. open() hashes the whole record while it decrypts the first
// 1088 bytes (a 1 KiB-payload record) into a stack window, checks the
// MAC, and only then writes any output byte; bytes past the window are
// decrypted after the check.
//
// seal_many() and open_many() are the batch forms, for a run of
// back-to-back records of one size such as a Path ORAM path. ChaCha20
// kernel lanes cover (record, block) pairs across records, so a record
// pays for its own blocks rather than whole groups, and SipHash runs one
// record per 64-bit vector lane. seal_many() encrypts 64 records at a
// time in place, then MACs them. open_many() follows a MAC-first rule:
// it checks the MAC of every record in the run before it decrypts a
// single byte, so a tampered record anywhere leaves every output as it
// was. Both produce and accept exactly the bytes of the one-record forms.
//
// open_many() can also skip bodies known to be zero: given a head word
// its caller only ever seals with an all-zero body (block_codec's dummy
// id), it decrypts the blocks that cover each head, then the rest only
// for records whose head differs, and zero-fills the others. The MAC is
// still checked over every whole record first, so a tampered body is
// caught whether or not it is decrypted. Host time then depends on how
// many records carry that head; the modelled crypto time callers charge
// does not.
#ifndef HORAM_CRYPTO_SEAL_H
#define HORAM_CRYPTO_SEAL_H

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/siphash.h"

namespace horam::crypto {

/// Offset of the ciphertext in a sealed buffer (the nonce comes first).
inline constexpr std::size_t seal_nonce_bytes = 12;

/// Extra bytes a sealed block carries beyond the plaintext
/// (12-byte nonce + 8-byte MAC).
inline constexpr std::size_t seal_overhead = seal_nonce_bytes + 8;

/// Key material for the sealing scheme (independent encryption and MAC
/// keys, per standard encrypt-then-MAC practice).
struct seal_keys {
  chacha_key encryption_key{};
  siphash_key mac_key{};
};

/// Derives both keys deterministically from a 64-bit master seed.
seal_keys derive_seal_keys(std::uint64_t master_seed);

/// Stateful sealer. Nonces are drawn from an internal counter, which is
/// unique-per-seal as long as one sealer instance guards one store.
class block_sealer {
 public:
  explicit block_sealer(const seal_keys& keys);

  /// Seals `plaintext` into `out`, which must be exactly
  /// plaintext.size() + seal_overhead bytes. `plaintext` is either
  /// disjoint from `out` or exactly out.subspan(seal_nonce_bytes,
  /// plaintext.size()) (in-place sealing). A wrong size or a partial
  /// overlap throws contract_error.
  void seal(std::span<const std::uint8_t> plaintext,
            std::span<std::uint8_t> out);

  /// Opens `sealed` into `plaintext_out`, which must be exactly
  /// sealed.size() - seal_overhead bytes and is either disjoint from
  /// `sealed` or exactly its ciphertext bytes (in-place opening). The MAC
  /// is verified before any byte is written. Throws crypto_error if the
  /// MAC check fails (tampering) or the buffer is malformed, and
  /// contract_error on a wrongly sized or partially overlapping output.
  void open(std::span<const std::uint8_t> sealed,
            std::span<std::uint8_t> plaintext_out) const;

  /// Scatter form of open(): the first head.size() plaintext bytes go to
  /// `head`, the rest to `body`. An empty `body` decrypts only the head;
  /// a non-empty one must hold exactly the rest. The whole buffer is
  /// authenticated either way. Aliasing rules as for open(), per span.
  void open(std::span<const std::uint8_t> sealed,
            std::span<std::uint8_t> head,
            std::span<std::uint8_t> body) const;

  /// Batch form of seal(), in place: `records` holds back-to-back
  /// records of `record_bytes` each (at least seal_overhead), each with
  /// its plaintext at offset seal_nonce_bytes. Record i gets the i-th
  /// next nonce, so the bytes equal those of seal() record by record.
  /// Throws contract_error if `records` is not whole records.
  void seal_many(std::span<std::uint8_t> records, std::size_t record_bytes);

  /// Batch form of the scatter open(): `sealed` holds back-to-back
  /// sealed records of `record_bytes` each. With size = record_bytes -
  /// seal_overhead and h = heads.size() / record count, record i's first
  /// h plaintext bytes go to heads[i·h, (i+1)·h) and the rest to
  /// bodies[i·(size-h), (i+1)·(size-h)); an empty `bodies` decrypts the
  /// heads only. Every record's MAC is checked before any output byte of
  /// any record is written, so on crypto_error all outputs are as they
  /// were. The outputs must not overlap `sealed` (contract_error).
  ///
  /// With `zero_body_head` (heads of at least 8 bytes), a record whose
  /// first 8 plaintext bytes read as that word is taken to have been
  /// sealed with an all-zero body: its body is zero-filled, and only the
  /// keystream blocks that cover its head are computed. The output is
  /// that of a full open as long as callers never seal that head with a
  /// non-zero body; the MAC still covers the whole record.
  void open_many(std::span<const std::uint8_t> sealed,
                 std::size_t record_bytes, std::span<std::uint8_t> heads,
                 std::span<std::uint8_t> bodies,
                 std::optional<std::uint64_t> zero_body_head = {}) const;

 private:
  seal_keys keys_;
  std::uint64_t nonce_counter_ = 0;
};

/// Thrown when authentication fails or a sealed buffer is malformed.
class crypto_error : public std::runtime_error {
 public:
  explicit crypto_error(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_SEAL_H
