// Workload definitions and request streams of the closed-loop benchmark.
//
// Everything here depends only on the workload seed given on the command
// line; the library receives nothing but the generated (op, block id,
// payload) stream. The machine seed the library's own RNGs use is a
// separate constant (kMachineSeed), so a claim tuned on one workload seed
// can be re-run on another without touching the simulated machine.
#ifndef HORAM_PERFBENCH_WORKLOAD_H
#define HORAM_PERFBENCH_WORKLOAD_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "horam.h"

namespace perfbench {

/// Seed of the simulated machine (device lanes, ORAM RNGs, sealing
/// keys). Fixed: only the workload seed varies between runs.
inline constexpr std::uint64_t kMachineSeed = 2019;

/// The paper's block size.
inline constexpr std::size_t kPayloadBytes = 1024;

enum class distribution : std::uint8_t { hotspot, uniform, zipf };

struct workload {
  std::string_view name;
  std::string_view why;
  horam::backend_kind backend = horam::backend_kind::partitioned;
  std::string_view profile;
  std::uint64_t blocks = 0;
  std::uint32_t shards = 1;
  /// Worker threads of the threaded runtime (0 = sim runtime).
  std::uint32_t threads = 0;
  bool coalescing = false;
  bool map_on_storage = false;
  /// Device time of one incremental shuffle slice (0 = the default
  /// foreground shuffle).
  horam::sim::sim_time shuffle_slice_budget = 0;
  std::uint32_t sessions = 1;
  distribution dist = distribution::uniform;
  double write_share = 0.0;
  /// Scheduling rounds (service steps) before the measured window opens:
  /// cache fill, stash and level warm-up.
  std::uint64_t warmup_steps = 0;
  /// Rounds the virtual metrics are taken over; they must complete at
  /// least 10,000 requests, so p99.9 has ten samples beyond it.
  std::uint64_t window_steps = 0;
};

inline constexpr double kCacheRatio = 0.125;
/// Hotspot stream of §5.2.1: 80% of requests in 1.7% of the blocks.
inline constexpr double kHotProbability = 0.8;
inline constexpr double kHotFraction = 0.017;
inline constexpr double kZipfExponent = 1.1;

inline const std::vector<workload>& workloads() {
  static const std::vector<workload> all = {
      {.name = "paper-hotspot",
       .why = "the paper's read-only hotspot stream; the cache tree and "
              "the periodic shuffle do the work",
       .backend = horam::backend_kind::partitioned,
       .profile = "hdd",
       .blocks = 16384,
       .sessions = 96,
       .dist = distribution::hotspot,
       .write_share = 0.0,
       .warmup_steps = 64,
       .window_steps = 340},
      {.name = "uniform-path",
       .why = "uniform 50% writes over 8x the cache on sealed Path ORAM "
              "with the map on storage; almost every request misses",
       .backend = horam::backend_kind::path,
       .profile = "nvme",
       .blocks = 16384,
       .map_on_storage = true,
       .sessions = 12,
       .dist = distribution::uniform,
       .write_share = 0.5,
       .warmup_steps = 64,
       .window_steps = 880},
      {.name = "zipf-tenants",
       .why = "zipf 1.1 with 50% writes from 128 sessions over 4 hier "
              "shards on 2 threads; router, coalescer and runtime load",
       .backend = horam::backend_kind::hier,
       .profile = "net-remote",
       .blocks = 32768,
       .shards = 4,
       .threads = 2,
       .coalescing = true,
       .shuffle_slice_budget = 1000 * horam::util::microseconds,
       .sessions = 128,
       .dist = distribution::zipf,
       .write_share = 0.5,
       .warmup_steps = 8,
       .window_steps = 90},
  };
  return all;
}

/// SplitMix64 step: the benchmark's only randomness source, so streams
/// never depend on the library's generators.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class rng {
 public:
  explicit rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// One generated request: op and global block id.
struct draw {
  bool write = false;
  std::uint64_t id = 0;
};

/// Seed of the zipf popularity layout (rank -> block). The layout is part
/// of the workload, not of the seed: with 4 shards, the shards the
/// hottest few blocks land on set the round imbalance, and a per-seed
/// layout moved virt_rps between 3,665 and 4,781 req/s over 10 seeds, a
/// placement effect that would swamp any change the benchmark should see.
inline constexpr std::uint64_t kZipfLayoutSeed = 0x7a697066;  // "zipf"

/// Per-session request streams over one workload. The hot region's
/// offset derives from the seed; each session then draws from its own
/// independent generator.
class streams {
 public:
  streams(const workload& w, std::uint64_t seed) : w_(w) {
    rng shared(mix64(seed));
    hot_count_ = static_cast<std::uint64_t>(kHotFraction *
                                            static_cast<double>(w.blocks));
    hot_start_ = shared.below(w.blocks - hot_count_);
    if (w.dist == distribution::zipf) {
      cdf_.resize(w.blocks);
      double total = 0.0;
      for (std::uint64_t r = 0; r < w.blocks; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf_[r] = total;
      }
      for (double& c : cdf_) {
        c /= total;
      }
      relabel_.resize(w.blocks);
      for (std::uint64_t i = 0; i < w.blocks; ++i) {
        relabel_[i] = i;
      }
      rng layout(mix64(kZipfLayoutSeed));
      for (std::uint64_t i = w.blocks - 1; i > 0; --i) {
        std::swap(relabel_[i], relabel_[layout.below(i + 1)]);
      }
    }
    for (std::uint32_t s = 0; s < w.sessions; ++s) {
      sessions_.emplace_back(mix64(seed ^ mix64(s + 1)));
    }
  }

  draw next(std::uint32_t session) {
    rng& r = sessions_[session];
    draw d;
    switch (w_.dist) {
      case distribution::hotspot:
        d.id = r.unit() < kHotProbability ? hot_start_ + r.below(hot_count_)
                                          : r.below(w_.blocks);
        break;
      case distribution::uniform:
        d.id = r.below(w_.blocks);
        break;
      case distribution::zipf: {
        const double u = r.unit();
        const auto rank = static_cast<std::uint64_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        d.id = relabel_[std::min<std::uint64_t>(rank, w_.blocks - 1)];
        break;
      }
    }
    d.write = w_.write_share > 0.0 && r.unit() < w_.write_share;
    return d;
  }

 private:
  const workload& w_;
  std::uint64_t hot_count_ = 0;
  std::uint64_t hot_start_ = 0;
  std::vector<double> cdf_;
  std::vector<std::uint64_t> relabel_;
  std::vector<rng> sessions_;
};

/// Payload of version `version` of block `id`: word 0 is the id, word 1
/// the version, the rest a keyed pattern of both, so a record that lands
/// at the wrong address, reverts to an old version or flips one bit
/// anywhere reads back as a mismatch.
inline void fill_payload(std::uint64_t id, std::uint64_t version,
                         std::span<std::uint8_t> out) {
  const std::uint64_t key = mix64(id * 0x9e3779b97f4a7c15ULL ^ version);
  std::uint64_t word = 0;
  for (std::size_t offset = 0; offset < out.size(); offset += 8) {
    const std::size_t index = offset / 8;
    word = index == 0 ? id : index == 1 ? version : mix64(key + index);
    std::memcpy(out.data() + offset, &word,
                std::min<std::size_t>(8, out.size() - offset));
  }
}

/// Shadow copy of the store, checked as a linearizable register per
/// block. Every admission and completion advances a logical clock. A
/// write w is superseded once some write w' to the same block has
/// completed and was admitted after w completed: real time orders w'
/// after w, so w's value must never be read again. Writes that overlap
/// in time may take effect in either order — the tenant scheduler
/// interleaves sessions fairly, and the coalescer folds one round's
/// writes into a single access — so a read may return any write that no
/// write completed before the read's admission supersedes, the initial
/// version 0 included, or any write still in flight.
class shadow {
 public:
  explicit shadow(std::uint64_t blocks)
      : writes_(blocks, std::vector<write>(1, write{0, 0})), floor_(blocks, 0),
        expect_(kPayloadBytes) {}

  /// Admits the next write of `id`; returns its version.
  std::uint64_t admit_write(std::uint64_t id) {
    writes_[id].push_back({.admitted = ++clock_});
    return writes_[id].size() - 1;
  }
  void complete_write(std::uint64_t id, std::uint64_t version) {
    write& w = writes_[id][version];
    w.completed = ++clock_;
    floor_[id] = std::max(floor_[id], w.admitted);
  }
  /// What a read of `id` admitted now must respect (pass to check_read):
  /// the latest admission among the block's completed writes.
  [[nodiscard]] std::uint64_t read_floor(std::uint64_t id) const {
    return floor_[id];
  }
  /// Deliberate fault for the benchmark's self-test: pretend every write
  /// of `id` so far has been superseded.
  void corrupt(std::uint64_t id) { floor_[id] = kInFlight - 1; }

  /// True iff `payload` is a valid answer to a read of `id` admitted
  /// when read_floor(id) was `floor`.
  bool check_read(std::uint64_t id, std::uint64_t floor,
                  std::span<const std::uint8_t> payload) {
    if (payload.size() != kPayloadBytes) {
      return false;
    }
    std::uint64_t got_id = 0;
    std::uint64_t version = 0;
    std::memcpy(&got_id, payload.data(), 8);
    std::memcpy(&version, payload.data() + 8, 8);
    if (got_id != id || version >= writes_[id].size() ||
        writes_[id][version].completed < floor) {
      return false;
    }
    fill_payload(id, version, expect_);
    return std::equal(payload.begin(), payload.end(), expect_.begin());
  }

 private:
  static constexpr std::uint64_t kInFlight = ~std::uint64_t{0};
  /// Logical admission and completion times of one write; version 0 is
  /// the initial contents, in place from time 0.
  struct write {
    std::uint64_t admitted = 0;
    std::uint64_t completed = kInFlight;
  };
  std::vector<std::vector<write>> writes_;
  std::vector<std::uint64_t> floor_;
  std::vector<std::uint8_t> expect_;
  std::uint64_t clock_ = 0;
};

}  // namespace perfbench

#endif  // HORAM_PERFBENCH_WORKLOAD_H
