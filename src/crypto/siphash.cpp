#include "crypto/siphash.h"

#include "crypto/sip_core.h"

namespace horam::crypto {

std::uint64_t siphash24(const siphash_key& key,
                        std::span<const std::uint8_t> data) {
  return sip_stream(key, data.data(), data.size()).finish();
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
