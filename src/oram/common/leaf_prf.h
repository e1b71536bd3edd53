// Keyed leaf derivation for remap-on-load tree backends.
//
// Path ORAM remaps a block inside the access that reads it. The tree
// backends (path_backend, ring_backend) do the same: the map walk that
// locates a loaded block writes its next leaf in the same per-level
// read-modify-write, so re-installing the block at the next shuffle
// needs no map access. The next leaf is F_k(id, epoch), SipHash-2-4 of
// (id, epoch) under a per-shard key, reduced to the tree's power-of-two
// leaf count. `epoch` is the backend's own count of shuffles begun; a
// block is loaded at most once per epoch (it stays cached until the
// next shuffle re-installs it), so no (id, epoch) input repeats and the
// leaves are as good as fresh uniform draws. The assumption is
// computational — SipHash is a PRF — like the sealing of every record.
// Unlike a vector of drawn leaves it costs no trusted memory: the
// backend recomputes the leaf at install.
#ifndef HORAM_ORAM_COMMON_LEAF_PRF_H
#define HORAM_ORAM_COMMON_LEAF_PRF_H

#include <array>
#include <cstdint>
#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/siphash.h"
#include "oram/common/types.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

class leaf_prf {
 public:
  /// Derivation label of the leaf key: its own ChaCha20 stream of the
  /// shard's key seed, apart from every codec's seal-key stream.
  static constexpr std::uint64_t key_label = 0x6c656166;  // "leaf"

  /// `leaf_count` must be a power of two (every tree's is).
  leaf_prf(std::uint64_t key_seed, std::uint64_t leaf_count)
      : leaf_mask_(leaf_count - 1) {
    expects(util::is_pow2(leaf_count), "leaf count must be 2^k");
    crypto::chacha_rng expander(key_seed, key_label);
    for (std::size_t half = 0; half < 2; ++half) {
      const std::uint64_t word = expander.next_u64();
      std::memcpy(key_.data() + half * 8, &word, sizeof(word));
    }
  }

  /// F_k(id, epoch): the leaf `id` is installed at by the shuffle that
  /// begins epoch `epoch`.
  [[nodiscard]] leaf_id operator()(block_id id, std::uint64_t epoch) const {
    std::array<std::uint8_t, 16> message{};
    for (int i = 0; i < 8; ++i) {
      message[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(id >> (8 * i));
      message[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(epoch >> (8 * i));
    }
    return crypto::siphash24(key_, message) & leaf_mask_;
  }

  /// Public fingerprint of the key (tests check that no two shards
  /// share one).
  [[nodiscard]] std::uint64_t key_fingerprint() const {
    return crypto::siphash24(crypto::siphash_key{}, key_);
  }

 private:
  crypto::siphash_key key_{};
  std::uint64_t leaf_mask_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_LEAF_PRF_H
