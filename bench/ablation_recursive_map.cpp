// Ablation for the recursive position map extension: the thesis runs
// "the naive setting (no recursive)" — a flat trusted map of 8 B per
// block (Figure 4-1's "Position map (4MB)"). Recursion shrinks trusted
// state geometrically at the price of one extra in-memory ORAM access
// per level per map operation. This bench quantifies that trade so a
// deployment can pick its point.
#include <iostream>

#include "oram/path/recursive_position_map.h"
#include "sim/profiles.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace horam;

  sim::block_device memory(sim::dram_ddr4());
  const sim::cpu_model cpu(sim::cpu_aesni());

  constexpr std::uint64_t universe = 1 << 19;  // the paper's 4 MB map
  std::cout << "=== Ablation: recursive position map (universe = 2^19 "
               "blocks; flat map = 4 MB trusted) ===\n";
  util::text_table table({"Entries/block", "Threshold", "Levels",
                          "Trusted bytes", "Map-ORAM bytes",
                          "Lookup cost", "Exchange cost"});

  struct option {
    std::uint64_t epb;
    std::uint64_t threshold;
  };
  const std::vector<option> options = {
      {16, 1 << 19},  // degenerate: stays flat
      {16, 1 << 14},
      {16, 1 << 10},
      {16, 64},
      {64, 64},
      {256, 64},
  };
  for (const option& opt : options) {
    util::pcg64 rng(5);
    oram::recursive_map_config config;
    config.universe = universe;
    config.entries_per_block = opt.epb;
    config.direct_threshold = opt.threshold;
    config.seal = false;
    oram::recursive_position_map map(config, memory, cpu, rng, nullptr);

    // Average a handful of operations.
    oram::cost_split lookup_cost;
    oram::cost_split exchange_cost;
    constexpr int samples = 50;
    for (int i = 0; i < samples; ++i) {
      const oram::block_id id = util::uniform_below(rng, universe);
      std::optional<oram::leaf_id> out;
      exchange_cost += map.exchange(id, i + 1, out);
      lookup_cost += map.lookup(id, out);
    }
    table.add_row(
        {std::to_string(opt.epb), std::to_string(opt.threshold),
         std::to_string(map.level_count()),
         util::format_bytes(map.trusted_bytes()),
         util::format_bytes(map.oram_bytes()),
         util::format_time_ns(lookup_cost.total() / samples),
         util::format_time_ns(exchange_cost.total() / samples)});
  }
  table.print(std::cout);
  std::cout << "Each level adds one in-memory path access per map "
               "operation; trusted memory falls\nfrom 4 MB to a few "
               "hundred bytes — the standard Path ORAM recursion the "
               "thesis skips.\n";
  return 0;
}
