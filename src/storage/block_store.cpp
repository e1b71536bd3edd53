#include "storage/block_store.h"

#include <cstring>

#include "util/contracts.h"

namespace horam::storage {

block_store::block_store(sim::block_device& device,
                         std::uint64_t base_offset, std::uint64_t slot_count,
                         std::size_t record_bytes,
                         std::uint64_t logical_block_bytes)
    : device_(device),
      base_offset_(base_offset),
      slot_count_(slot_count),
      record_bytes_(record_bytes),
      logical_block_bytes_(logical_block_bytes) {
  expects(slot_count > 0, "store needs at least one slot");
  expects(record_bytes > 0, "records must be non-empty");
  expects(logical_block_bytes >= record_bytes,
          "logical block must hold the record");
  data_.resize(slot_count * record_bytes);
}

sim::sim_time block_store::read(std::uint64_t slot,
                                std::span<std::uint8_t> out) {
  expects(slot < slot_count_, "slot out of range");
  expects(out.size() >= record_bytes_, "output buffer too small");
  std::memcpy(out.data(), data_.data() + slot * record_bytes_,
              record_bytes_);
  return device_.read(device_offset(slot), logical_block_bytes_);
}

sim::sim_time block_store::write(std::uint64_t slot,
                                 std::span<const std::uint8_t> in) {
  expects(slot < slot_count_, "slot out of range");
  expects(in.size() >= record_bytes_, "input buffer too small");
  std::memcpy(data_.data() + slot * record_bytes_, in.data(), record_bytes_);
  return device_.write(device_offset(slot), logical_block_bytes_);
}

sim::sim_time block_store::read_range(std::uint64_t first,
                                      std::uint64_t count,
                                      std::span<std::uint8_t> out) {
  expects(out.size() >= count * record_bytes_, "output buffer too small");
  sim::sim_time cost = 0;
  const std::span<const std::uint8_t> records =
      view_range(first, count, cost);
  std::memcpy(out.data(), records.data(), records.size());
  return cost;
}

sim::sim_time block_store::write_range(std::uint64_t first,
                                       std::uint64_t count,
                                       std::span<const std::uint8_t> in) {
  expects(in.size() >= count * record_bytes_, "input buffer too small");
  sim::sim_time cost = 0;
  const std::span<std::uint8_t> records = fill_range(first, count, cost);
  std::memcpy(records.data(), in.data(), records.size());
  return cost;
}

std::span<const std::uint8_t> block_store::view_range(std::uint64_t first,
                                                      std::uint64_t count,
                                                      sim::sim_time& cost) {
  expects(first + count <= slot_count_, "range out of bounds");
  expects(count > 0, "empty range read");
  cost = device_.read(device_offset(first), count * logical_block_bytes_);
  return {data_.data() + first * record_bytes_, count * record_bytes_};
}

std::span<std::uint8_t> block_store::fill_range(std::uint64_t first,
                                                std::uint64_t count,
                                                sim::sim_time& cost) {
  expects(first + count <= slot_count_, "range out of bounds");
  expects(count > 0, "empty range write");
  cost = device_.write(device_offset(first), count * logical_block_bytes_);
  return {data_.data() + first * record_bytes_, count * record_bytes_};
}

sim::sim_time block_store::read_xor(std::span<const std::uint64_t> slots,
                                    std::span<std::uint8_t> out) {
  expects(!slots.empty(), "XOR read needs at least one slot");
  expects(out.size() >= record_bytes_, "output buffer too small");
  std::memset(out.data(), 0, record_bytes_);
  for (const std::uint64_t slot : slots) {
    expects(slot < slot_count_, "slot out of range");
    const std::uint8_t* src = data_.data() + slot * record_bytes_;
    for (std::size_t i = 0; i < record_bytes_; ++i) out[i] ^= src[i];
  }
  return device_.read(device_offset(slots.front()), logical_block_bytes_);
}

sim::sim_time block_store::read_scatter(
    std::span<const std::uint64_t> slots, std::span<std::uint8_t> out) {
  expects(!slots.empty(), "scatter read needs at least one slot");
  expects(out.size() >= slots.size() * record_bytes_,
          "output buffer too small");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    expects(slots[i] < slot_count_, "slot out of range");
    std::memcpy(out.data() + i * record_bytes_,
                data_.data() + slots[i] * record_bytes_, record_bytes_);
  }
  return device_.read(device_offset(slots.front()),
                      slots.size() * logical_block_bytes_);
}

std::span<const std::uint8_t> block_store::peek(std::uint64_t slot) const {
  expects(slot < slot_count_, "slot out of range");
  return {data_.data() + slot * record_bytes_, record_bytes_};
}

void block_store::prime(std::uint64_t slot,
                        std::span<const std::uint8_t> in) {
  expects(slot < slot_count_, "slot out of range");
  expects(in.size() >= record_bytes_, "input buffer too small");
  std::memcpy(data_.data() + slot * record_bytes_, in.data(), record_bytes_);
}

void block_store::corrupt(std::uint64_t slot, std::size_t byte_offset,
                          std::uint8_t mask) {
  expects(slot < slot_count_, "slot out of range");
  expects(byte_offset < record_bytes_, "byte offset out of range");
  data_[slot * record_bytes_ + byte_offset] ^= mask;
}

}  // namespace horam::storage
