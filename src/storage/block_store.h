// Fixed-record block store over a simulated device.
//
// The store owns the record bytes (host memory) and charges virtual time
// to its block_device for every access. Records are opaque byte strings
// of a fixed size — the ORAM layers decide what goes inside (sealed
// blocks). Two sizes are distinguished:
//   * record_bytes        — bytes actually held per slot (host memory)
//   * logical_block_bytes — bytes the modelled hardware moves per slot
// They are equal in a deployment; benchmarks shrink record_bytes to keep
// host memory small while timing full-size blocks.
#ifndef HORAM_STORAGE_BLOCK_STORE_H
#define HORAM_STORAGE_BLOCK_STORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.h"

namespace horam::storage {

/// A contiguous array of `slot_count` fixed-size records on a device.
class block_store {
 public:
  /// Creates the store. `base_offset` positions it on the device (so
  /// several stores can share one device, e.g. tree + flat regions).
  block_store(sim::block_device& device, std::uint64_t base_offset,
              std::uint64_t slot_count, std::size_t record_bytes,
              std::uint64_t logical_block_bytes);

  [[nodiscard]] std::uint64_t slot_count() const noexcept {
    return slot_count_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  [[nodiscard]] std::uint64_t logical_block_bytes() const noexcept {
    return logical_block_bytes_;
  }
  [[nodiscard]] sim::block_device& device() noexcept { return device_; }

  /// Reads one record into `out` (record_bytes long); returns device cost.
  sim::sim_time read(std::uint64_t slot, std::span<std::uint8_t> out);

  /// Writes one record from `in`; returns device cost.
  sim::sim_time write(std::uint64_t slot, std::span<const std::uint8_t> in);

  /// Reads `count` consecutive records starting at `first` as one
  /// streaming transfer into `out` (count * record_bytes long).
  sim::sim_time read_range(std::uint64_t first, std::uint64_t count,
                           std::span<std::uint8_t> out);

  /// Writes `count` consecutive records as one streaming transfer.
  sim::sim_time write_range(std::uint64_t first, std::uint64_t count,
                            std::span<const std::uint8_t> in);

  /// read_range without the host copy, for whole-store sweeps that
  /// decode as they go: charges the same transfer to `cost` and returns
  /// the records read-only (valid until the store is next written).
  [[nodiscard]] std::span<const std::uint8_t> view_range(
      std::uint64_t first, std::uint64_t count, sim::sim_time& cost);

  /// write_range without the host copy: charges the same transfer to
  /// `cost` and returns the records' bytes for the caller to fill.
  [[nodiscard]] std::span<std::uint8_t> fill_range(std::uint64_t first,
                                                   std::uint64_t count,
                                                   sim::sim_time& cost);

  /// XOR-combined read (Ring ORAM's XOR technique): the storage side
  /// folds the listed slots together and a single combined block — the
  /// byte-wise XOR of their records — crosses the bus into `out`
  /// (record_bytes long). Charges one device read of one logical block
  /// regardless of how many slots are folded; the caller recovers the
  /// one real record by XORing out the deterministic dummy encodings.
  sim::sim_time read_xor(std::span<const std::uint64_t> slots,
                         std::span<std::uint8_t> out);

  /// Batched scatter read (the hier backend's one-round-trip probe):
  /// the storage side gathers the listed slots — one per level, known up
  /// front from the trusted index, no element depending on another's
  /// result — and ships them back in a single exchange. Each record
  /// lands at `out[i * record_bytes]`; charges one device read moving
  /// slots.size() logical blocks (one command, k blocks of payload,
  /// one round trip).
  sim::sim_time read_scatter(std::span<const std::uint64_t> slots,
                             std::span<std::uint8_t> out);

  /// Direct read-only view of a stored record (no device time charged;
  /// for tests and integrity checks only).
  [[nodiscard]] std::span<const std::uint8_t> peek(std::uint64_t slot) const;

  /// Installs a record's host bytes without touching the device (no
  /// device time, no op counted). For state the device never has to
  /// materialise — e.g. the all-dummy image behind unset valid bits,
  /// which page-layout reads reconstruct from trusted knowledge instead
  /// of a transfer.
  void prime(std::uint64_t slot, std::span<const std::uint8_t> in);

  /// Fault injection: XORs `mask` into one stored byte, bypassing the
  /// device (models an adversary or bit rot). Test use only.
  void corrupt(std::uint64_t slot, std::size_t byte_offset,
               std::uint8_t mask);

 private:
  [[nodiscard]] std::uint64_t device_offset(std::uint64_t slot) const
      noexcept {
    return base_offset_ + slot * logical_block_bytes_;
  }

  sim::block_device& device_;
  std::uint64_t base_offset_;
  std::uint64_t slot_count_;
  std::size_t record_bytes_;
  std::uint64_t logical_block_bytes_;
  std::vector<std::uint8_t> data_;
};

}  // namespace horam::storage

#endif  // HORAM_STORAGE_BLOCK_STORE_H
