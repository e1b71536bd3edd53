// Ablation for the shuffle substrate (§3.2 / §4.3): compares the
// external Melbourne shuffle (the sqrt backend's reshuffle) with
// H-ORAM's sequential partition rewrite (stream in, permute in trusted
// memory with util::random_permutation as storage_layer does, stream
// out), across sizes. This is the quantitative version of the paper's
// claim that full oblivious shuffles "bring excessive overhead"
// compared with its sequential group-and-partition shuffle.
#include <chrono>
#include <cstring>
#include <iostream>

#include "shuffle/melbourne.h"
#include "sim/profiles.h"
#include "storage/block_store.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace horam;

constexpr std::size_t record_bytes = 64;
constexpr std::uint64_t logical_block = 1024;

}  // namespace

int main() {
  std::cout << "=== Ablation: shuffle algorithm costs ===\n";
  util::text_table table({"n records", "Algorithm", "Touch ops",
                          "Bytes moved", "Device I/O time",
                          "Host time"});

  for (const std::uint64_t n : {1024ULL, 4096ULL, 16384ULL}) {
    util::pcg64 rng(n);

    {  // Melbourne shuffle on the HDD model.
      sim::block_device device(sim::hdd_paper());
      const shuffle::melbourne_config config{};
      storage::block_store input(device, 0, n, record_bytes,
                                 logical_block);
      storage::block_store scratch(
          device, n * logical_block,
          shuffle::melbourne_scratch_records(n, config), record_bytes,
          logical_block);
      storage::block_store output(
          device,
          (n + shuffle::melbourne_scratch_records(n, config)) *
              logical_block,
          n, record_bytes, logical_block);
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          shuffle::melbourne_shuffle(input, scratch, output, rng, config);
      const double host =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      table.add_row({util::format_count(n), "melbourne (external)",
                     util::format_count(result.stats.touch_ops),
                     util::format_bytes(result.stats.bytes_moved),
                     util::format_time_ns(result.io_time),
                     util::format_double(host * 1e3, 2) + " ms"});
    }
    {  // H-ORAM's per-partition sequential rewrite, for comparison: one
       // streaming read + shuffle in trusted memory + streaming write.
      sim::block_device device(sim::hdd_paper());
      storage::block_store store(device, 0, n, record_bytes,
                                 logical_block);
      std::vector<std::uint8_t> image(n * record_bytes);
      sim::sim_time io = store.read_range(0, n, image);
      const auto pi = util::random_permutation(rng, n);
      std::vector<std::uint8_t> permuted(image.size());
      for (std::uint64_t i = 0; i < n; ++i) {
        std::memcpy(permuted.data() + pi[i] * record_bytes,
                    image.data() + i * record_bytes, record_bytes);
      }
      io += store.write_range(0, n, permuted);
      table.add_row({util::format_count(n),
                     "sequential rewrite (H-ORAM partition)",
                     util::format_count(n), util::format_bytes(
                         2 * n * record_bytes),
                     util::format_time_ns(io), "-"});
    }
    table.add_separator();
  }
  table.print(std::cout);
  std::cout << "The paper's motivation in numbers: oblivious external "
               "shuffles move ~(1+quota)x the data with\nmessage-"
               "granular seeks, while H-ORAM's partition shuffle streams "
               "each partition exactly twice.\n";
  return 0;
}
