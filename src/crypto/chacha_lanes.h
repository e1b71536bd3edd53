// The ChaCha20 kernel, generic over the lane count L, and the dispatch
// that runs it at the widest L this CPU supports. Internal to
// src/crypto: chacha20.cpp and seal.cpp are its only users.
//
// Lane j of state word i is word i of keystream block `counter + j`, so
// one step of the kernel computes L consecutive blocks (a "group",
// 64·L bytes) in GCC/Clang vector extensions. L = 4 is 128-bit code for
// the default target and the only width off x86. L = 8 is compiled for
// AVX2 and L = 16 for AVX-512F, each inside a function carrying that
// target attribute; with_lanes() picks one from CPUID, read once. There
// is no flag, option or environment variable: the width is a property
// of the host, and every width yields the same bytes.
//
// The lanes need not share a nonce or count consecutive blocks:
// block_group() reads each lane's counter and nonce words from its input
// state (key_state() fills the constants and key). The batch seal uses
// this to spread (record, block) pairs of many records over one group,
// so a 17-block record costs 17 lanes, not two whole groups.
//
// Every function that touches a vector is always_inline and takes
// vectors by reference, so vectors never cross a call between code
// built for different targets.
#ifndef HORAM_CRYPTO_CHACHA_LANES_H
#define HORAM_CRYPTO_CHACHA_LANES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "crypto/chacha20.h"

#if defined(__x86_64__) || defined(__i386__)
#define HORAM_CHACHA_WIDE_LANES 1
#endif

namespace horam::crypto {

static_assert(std::endian::native == std::endian::little,
              "word loads and keystream stores assume a little-endian host");

namespace detail {

/// Lane count the kernels run at on the calling thread: the widest this
/// CPU supports, unless a pin_lanes is alive on the thread.
unsigned active_lanes() noexcept;

/// Whether this host can run the kernel at `lanes` (4 always can).
bool lanes_supported(unsigned lanes) noexcept;

/// For tests: runs the calling thread's kernels at `lanes`, which must
/// be supported, for the pin's lifetime. Lets one host check every
/// width it has against the same vectors.
class pin_lanes {
 public:
  explicit pin_lanes(unsigned lanes);
  ~pin_lanes();
  pin_lanes(const pin_lanes&) = delete;
  pin_lanes& operator=(const pin_lanes&) = delete;

 private:
  unsigned saved_;
};

}  // namespace detail

template <int L>
struct lanes {};

/// Side work that does nothing.
struct no_side_work {
  void operator()(std::size_t) const noexcept {}
};

template <int L>
struct chacha_lanes {
  static_assert(L == 4 || L == 8 || L == 16, "lane count must be 4, 8 or 16");

  typedef std::uint32_t vec __attribute__((vector_size(4 * L)));
  typedef std::uint16_t vec16 __attribute__((vector_size(4 * L)));

  static constexpr std::size_t vec_bytes = 4 * L;
  static constexpr std::size_t group_bytes = 64 * L;
  /// Side-work calls per group (one per column or diagonal round).
  static constexpr std::size_t side_calls = 20;

  /// out = in[0, n) XOR the keystream from block `counter` on; `in` may
  /// equal `out`. While group g's keystream is computed, side(done) runs
  /// side_calls times with done = g · group_bytes, the output bytes
  /// already written, so a hook can read them in the same pass.
  template <class Side>
  [[gnu::always_inline]] static void stream(const chacha_key& key,
                                            const chacha_nonce& nonce,
                                            std::uint32_t counter,
                                            const std::uint8_t* in,
                                            std::uint8_t* out, std::size_t n,
                                            Side& side) noexcept {
    // RFC 8439 input state: constants, key, counter, nonce. Lane j of the
    // counter word counts block `counter + j`, wrapping mod 2^32.
    vec state[16] = {};
    key_state(key, state);
    iota(state[12], std::make_integer_sequence<std::uint32_t, L>());
    state[12] += counter;
    for (int i = 0; i < 3; ++i) {
      state[13 + i] = vec{} + load_le32(nonce.data() + 4 * i);
    }

    vec keystream[16];
    for (std::size_t offset = 0; offset < n;
         offset += group_bytes, state[12] += L) {
      block_group(state, keystream, side, offset);
      xor_bytes(reinterpret_cast<const std::uint8_t*>(keystream),
                in + offset, out + offset, std::min(group_bytes, n - offset));
    }
  }

  /// An input state with the constants and the key in every lane. Words
  /// 12 (block counter) and 13-15 (nonce) are zero, for the caller to
  /// fill: lanes need not share a nonce or count consecutive blocks,
  /// so one group can serve blocks of different records.
  [[gnu::always_inline]] static void key_state(const chacha_key& key,
                                               vec (&state)[16]) noexcept {
    const std::uint32_t words[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                    0x6b206574};
    for (int i = 0; i < 4; ++i) {
      state[i] = vec{} + words[i];
    }
    for (int i = 0; i < 8; ++i) {
      state[4 + i] = vec{} + load_le32(key.data() + 4 * i);
    }
    for (int i = 12; i < 16; ++i) {
      state[i] = vec{};
    }
  }

  /// out[0, n) = in[0, n) XOR ks[0, n): whole vectors, then 8-byte
  /// words, then bytes. `in` may equal `out`.
  [[gnu::always_inline]] static void xor_bytes(const std::uint8_t* ks,
                                               const std::uint8_t* in,
                                               std::uint8_t* out,
                                               std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + vec_bytes <= n; i += vec_bytes) {
      vec v, k;
      std::memcpy(&v, in + i, vec_bytes);
      std::memcpy(&k, ks + i, vec_bytes);
      v ^= k;
      std::memcpy(out + i, &v, vec_bytes);
    }
    for (; i + 8 <= n; i += 8) {
      std::uint64_t v, k;
      std::memcpy(&v, in + i, 8);
      std::memcpy(&k, ks + i, 8);
      v ^= k;
      std::memcpy(out + i, &v, 8);
    }
    for (; i < n; ++i) {
      out[i] = in[i] ^ ks[i];
    }
  }

  /// Keystream for the L blocks whose input states are the lanes of
  /// `state`, in memory order: out[i] holds bytes [vec_bytes · i,
  /// vec_bytes · (i + 1)) of the group, so lane j's block is bytes
  /// [64 · j, 64 · (j + 1)). side(done) runs side_calls times.
  template <class Side>
  [[gnu::always_inline]] static void block_group(const vec (&state)[16],
                                                 vec (&out)[16], Side& side,
                                                 std::size_t done) noexcept {
    vec x[16];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      x[i] = state[i];
    }
    for (int round = 0; round < 10; ++round) {
      quarter_round(x[0], x[4], x[8], x[12]);
      quarter_round(x[1], x[5], x[9], x[13]);
      quarter_round(x[2], x[6], x[10], x[14]);
      quarter_round(x[3], x[7], x[11], x[15]);
      side(done);
      quarter_round(x[0], x[5], x[10], x[15]);
      quarter_round(x[1], x[6], x[11], x[12]);
      quarter_round(x[2], x[7], x[8], x[13]);
      quarter_round(x[3], x[4], x[9], x[14]);
      side(done);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      x[i] += state[i];
    }
    transpose(x, out);
  }

 private:
  static std::uint32_t load_le32(const std::uint8_t* p) noexcept {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  template <std::uint32_t... I>
  [[gnu::always_inline]] static void iota(
      vec& v, std::integer_sequence<std::uint32_t, I...>) noexcept {
    v = vec{I...};
  }

  template <std::size_t... I>
  [[gnu::always_inline]] static void swap_halves(
      vec16& v, std::index_sequence<I...>) noexcept {
    v = __builtin_shufflevector(v, v, (I ^ 1)...);
  }

  // Rotate by 16 swaps the 16-bit halves of each lane where that is one
  // shuffle (SSE2 pshuflw/pshufhw at L = 4); everything else is
  // shift|or, which AVX-512F turns into vprold.
  template <int n>
  [[gnu::always_inline]] static void rotl(vec& v) noexcept {
    if constexpr (n == 16 && L < 16) {
      vec16 halves = (vec16)v;
      swap_halves(halves, std::make_index_sequence<2 * L>());
      v = (vec)halves;
    } else {
      v = (v << n) | (v >> (32 - n));
    }
  }

  // Inlined so the sixteen state vectors stay in registers across a round.
  [[gnu::always_inline]] static void quarter_round(vec& a, vec& b, vec& c,
                                                   vec& d) noexcept {
    a += b;
    d ^= a;
    rotl<16>(d);
    c += d;
    b ^= c;
    rotl<12>(b);
    a += b;
    d ^= a;
    rotl<8>(d);
    c += d;
    b ^= c;
    rotl<7>(b);
  }

  // Shuffle index of element e within its 128-bit chunk of four:
  // interleave runs of `run` elements of a and b, from the low (half 0)
  // or high (half 1) pair of elements of each chunk. run = 1 gives
  // punpck{l,h}dq, run = 2 punpck{l,h}qdq.
  static constexpr int interleave_index(int e, int run, int half) {
    const int w = e % 4;
    return ((w / run) % 2 ? L : 0) + (e - w) + 2 * half +
           (w / (2 * run)) * run + w % run;
  }

  // Shuffle index that swaps bit k of the row (which of the pair a, b)
  // with bit k of the element index: row `high` of the swapped pair.
  static constexpr int swap_index(int e, int k, int high) {
    const int bit = 1 << k;
    if (high == 0) {
      return (e & bit) ? L + e - bit : e;
    }
    return (e & bit) ? L + e : e + bit;
  }

  template <int run, int half, std::size_t... I>
  [[gnu::always_inline]] static void interleave(
      vec& out, const vec& a, const vec& b,
      std::index_sequence<I...>) noexcept {
    out = __builtin_shufflevector(a, b, interleave_index(I, run, half)...);
  }

  template <int k, int high, std::size_t... I>
  [[gnu::always_inline]] static void swap_bits(
      vec& out, const vec& a, const vec& b,
      std::index_sequence<I...>) noexcept {
    out = __builtin_shufflevector(a, b, swap_index(I, k, high)...);
  }

  // Lanes -> blocks. Per group of L state words, an L x L transpose:
  // a 4 x 4 transpose inside every 128-bit chunk, then one swap of 128-
  // bit chunks per remaining index bit. Afterwards x[L·g + b] holds
  // words [L·g, L·g + L) of block b, which is keystream vector
  // 16·b / L + g in memory order.
  [[gnu::always_inline]] static void transpose(vec (&x)[16],
                                               vec (&out)[16]) noexcept {
    constexpr auto seq = std::make_index_sequence<L>();
#pragma GCC unroll 4
    for (int r = 0; r < 16; r += 4) {
      vec ab_lo, ab_hi, cd_lo, cd_hi;
      interleave<1, 0>(ab_lo, x[r], x[r + 1], seq);
      interleave<1, 1>(ab_hi, x[r], x[r + 1], seq);
      interleave<1, 0>(cd_lo, x[r + 2], x[r + 3], seq);
      interleave<1, 1>(cd_hi, x[r + 2], x[r + 3], seq);
      interleave<2, 0>(x[r], ab_lo, cd_lo, seq);
      interleave<2, 1>(x[r + 1], ab_lo, cd_lo, seq);
      interleave<2, 0>(x[r + 2], ab_hi, cd_hi, seq);
      interleave<2, 1>(x[r + 3], ab_hi, cd_hi, seq);
    }
    swap_chunks<2>(x, seq);
    constexpr int groups = 16 / L;
#pragma GCC unroll 4
    for (int g = 0; g < groups; ++g) {
#pragma GCC unroll 16
      for (int b = 0; b < L; ++b) {
        out[b * groups + g] = x[L * g + b];
      }
    }
  }

  template <int k>
  [[gnu::always_inline]] static void swap_chunks(
      vec (&x)[16], std::make_index_sequence<L> seq) noexcept {
    if constexpr ((1 << k) < L) {
      constexpr int bit = 1 << k;
#pragma GCC unroll 16
      for (int r = 0; r < 16; ++r) {
        if ((r & bit) == 0) {
          vec lo, hi;
          swap_bits<k, 0>(lo, x[r], x[r + bit], seq);
          swap_bits<k, 1>(hi, x[r], x[r + bit], seq);
          x[r] = lo;
          x[r + bit] = hi;
        }
      }
      swap_chunks<k + 1>(x, seq);
    }
  }
};

template <class F>
void run_lanes_4(F& f) {
  f(lanes<4>{});
}

#ifdef HORAM_CHACHA_WIDE_LANES
template <class F>
__attribute__((target("avx2"))) void run_lanes_8(F& f) {
  f(lanes<8>{});
}

template <class F>
__attribute__((target("avx512f"))) void run_lanes_16(F& f) {
  f(lanes<16>{});
}
#endif

/// Calls f(lanes<L>{}) for the active lane count, from a function built
/// for that width's target. `f` must be an always_inline generic lambda
/// so the kernel inlines into that function.
template <class F>
void with_lanes(F&& f) {
  switch (detail::active_lanes()) {
#ifdef HORAM_CHACHA_WIDE_LANES
    case 16:
      run_lanes_16(f);
      return;
    case 8:
      run_lanes_8(f);
      return;
#endif
    default:
      run_lanes_4(f);
  }
}

}  // namespace horam::crypto

#endif  // HORAM_CRYPTO_CHACHA_LANES_H
