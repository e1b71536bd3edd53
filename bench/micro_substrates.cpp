// Google-benchmark microbenchmarks of the substrates: cipher, PRF,
// sealing, RNG, Fenwick sampling, Path ORAM access.
// These measure host performance of the library code itself (the other
// harnesses report virtual time).
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/chacha_lanes.h"
#include "crypto/seal.h"
#include "crypto/siphash.h"
#include "oram/path/path_oram.h"
#include "sim/profiles.h"
#include "util/fenwick.h"
#include "util/rng.h"

namespace {

using namespace horam;

/// Labels a crypto benchmark with the kernel width this CPU runs.
void label_lanes(benchmark::State& state) {
  state.SetLabel(std::to_string(crypto::detail::active_lanes()) + " lanes");
}

void bm_chacha20_block(benchmark::State& state) {
  crypto::chacha_key key{};
  crypto::chacha_nonce nonce{};
  std::array<std::uint8_t, 64> out;
  std::uint32_t counter = 0;
  for (auto _ : state) {
    crypto::chacha20_block(key, counter++, nonce, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(bm_chacha20_block);

void bm_chacha20_xor_1k(benchmark::State& state) {
  crypto::chacha_key key{};
  crypto::chacha_nonce nonce{};
  std::vector<std::uint8_t> data(1024, 0x5a);
  for (auto _ : state) {
    crypto::chacha20_xor(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  label_lanes(state);
}
BENCHMARK(bm_chacha20_xor_1k);

void bm_siphash_1k(benchmark::State& state) {
  crypto::siphash_key key{};
  std::vector<std::uint8_t> data(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(bm_siphash_1k);

void bm_seal_open_1k(benchmark::State& state) {
  crypto::block_sealer sealer(crypto::derive_seal_keys(1));
  const std::vector<std::uint8_t> plaintext(1024, 0x11);
  std::vector<std::uint8_t> sealed(plaintext.size() + crypto::seal_overhead);
  std::vector<std::uint8_t> opened(plaintext.size());
  for (auto _ : state) {
    sealer.seal(plaintext, sealed);
    sealer.open(sealed, opened);
    benchmark::DoNotOptimize(opened.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  label_lanes(state);
}
BENCHMARK(bm_seal_open_1k);

// One Path ORAM path of 1 KiB-payload records (8-byte id + 1 KiB,
// sealed to 1052 bytes): 11 levels x Z = 4 = 44 records per batch,
// sealed or opened in place in one call. The argument pins the kernel
// width; items are records, so ns/record = 1e9 / items_per_second.
constexpr std::size_t path_records = 44;
constexpr std::size_t path_record_bytes = 1032 + crypto::seal_overhead;

bool pin_width(benchmark::State& state,
               std::optional<crypto::detail::pin_lanes>& pin) {
  const auto lanes = static_cast<unsigned>(state.range(0));
  if (!crypto::detail::lanes_supported(lanes)) {
    state.SkipWithError("kernel width not supported by this CPU");
    return false;
  }
  pin.emplace(lanes);
  label_lanes(state);
  return true;
}

void bm_seal_many_path(benchmark::State& state) {
  std::optional<crypto::detail::pin_lanes> pin;
  if (!pin_width(state, pin)) {
    return;
  }
  crypto::block_sealer sealer(crypto::derive_seal_keys(1));
  std::vector<std::uint8_t> path(path_records * path_record_bytes, 0x11);
  for (auto _ : state) {
    sealer.seal_many(path, path_record_bytes);
    benchmark::DoNotOptimize(path.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(path_records));
}
BENCHMARK(bm_seal_many_path)->Arg(4)->Arg(8)->Arg(16);

void bm_open_many_path(benchmark::State& state) {
  std::optional<crypto::detail::pin_lanes> pin;
  if (!pin_width(state, pin)) {
    return;
  }
  crypto::block_sealer sealer(crypto::derive_seal_keys(1));
  std::vector<std::uint8_t> path(path_records * path_record_bytes, 0x11);
  sealer.seal_many(path, path_record_bytes);
  // The codec's split: 8-byte ids, then the payloads.
  std::vector<std::uint8_t> ids(path_records * 8);
  std::vector<std::uint8_t> payloads(path_records * 1024);
  for (auto _ : state) {
    sealer.open_many(path, path_record_bytes, ids, payloads);
    benchmark::DoNotOptimize(payloads.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(path_records));
}
BENCHMARK(bm_open_many_path)->Arg(4)->Arg(8)->Arg(16);

void bm_pcg64(benchmark::State& state) {
  util::pcg64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(bm_pcg64);

void bm_chacha_rng(benchmark::State& state) {
  crypto::chacha_rng rng(std::uint64_t{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
  label_lanes(state);
}
BENCHMARK(bm_chacha_rng);

void bm_fenwick_sample(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  util::fenwick_tree tree(size);
  for (std::size_t i = 0; i < size; ++i) {
    tree.add(i, 4);
  }
  util::pcg64 rng(2);
  for (auto _ : state) {
    const auto offset = static_cast<std::int64_t>(
        util::uniform_below(rng, static_cast<std::uint64_t>(
                                     tree.total())));
    benchmark::DoNotOptimize(tree.find_by_offset(offset));
  }
}
BENCHMARK(bm_fenwick_sample)->Arg(256)->Arg(1024)->Arg(4096);

void bm_path_oram_access(benchmark::State& state) {
  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());
  util::pcg64 rng(5);
  oram::path_oram_config config;
  config.leaf_count = 1024;
  config.bucket_size = 4;
  config.payload_bytes = 64;
  config.id_universe = 8192;
  config.seal = state.range(0) != 0;
  oram::path_oram oram(config, memory, nullptr, cpu, rng, nullptr);
  std::vector<std::uint8_t> payload(64, 1);
  oram::block_id id = 0;
  for (auto _ : state) {
    oram.access(oram::op_kind::write, id % 4096, payload, {});
    ++id;
  }
  state.SetLabel(config.seal ? "sealed" : "plain");
}
BENCHMARK(bm_path_oram_access)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
