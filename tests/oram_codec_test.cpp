// Tests for the block codec, the position map and the stash — the
// common layer the ORAM constructions share — plus fault injection
// through a store (tampered records must surface as crypto errors, not
// silent corruption).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "lane_widths.h"
#include "oram/common/block_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "sim/profiles.h"
#include "storage/block_store.h"

namespace horam::oram {
namespace {

// ----------------------------------------------------------- codec

class CodecSealModes : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Modes, CodecSealModes, ::testing::Bool());

TEST_P(CodecSealModes, RoundTripRealBlock) {
  block_codec codec(32, GetParam(), 5);
  std::vector<std::uint8_t> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(123456789, payload, record);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), 123456789u);
  EXPECT_EQ(out, payload);
}

TEST_P(CodecSealModes, DummyRoundTrip) {
  block_codec codec(32, GetParam(), 6);
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode_dummy(record);
  std::vector<std::uint8_t> out(32);
  EXPECT_EQ(codec.decode(record, out), dummy_block_id);
}

TEST_P(CodecSealModes, ShortPayloadIsZeroPadded) {
  block_codec codec(32, GetParam(), 7);
  const std::vector<std::uint8_t> partial(10, 0xee);
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(9, partial, record);
  std::vector<std::uint8_t> out(32);
  codec.decode(record, out);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], 0xee);
  }
  for (std::size_t i = 10; i < 32; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

// The batch forms write the bytes of the one-record forms called in
// order (mixed real, short and dummy blocks) and read every record back.
TEST_P(CodecSealModes, ManyMatchesOneAtATime) {
  block_codec one(32, GetParam(), 8);
  block_codec many(32, GetParam(), 8);
  constexpr std::size_t count = 11;
  const std::size_t rec = one.record_bytes();
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<block_codec::block_ref> blocks;
  std::vector<std::uint8_t> expected(count * rec);
  for (std::size_t i = 0; i < count; ++i) {
    payloads.emplace_back(i % 4 == 1 ? 5 : 32,
                          static_cast<std::uint8_t>(i + 1));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<std::uint8_t> record =
        std::span(expected).subspan(i * rec, rec);
    if (i % 3 == 2) {
      one.encode_dummy(record);
      blocks.push_back({});
    } else {
      one.encode(100 + i, payloads[i], record);
      blocks.push_back({100 + i, payloads[i]});
    }
  }
  std::vector<std::uint8_t> records(count * rec);
  many.encode_many(blocks, records);
  EXPECT_EQ(records, expected);

  std::vector<std::uint8_t> dummies(3 * rec), expected_dummies(3 * rec);
  many.encode_dummies(dummies);
  for (std::size_t i = 0; i < 3; ++i) {
    one.encode_dummy(std::span(expected_dummies).subspan(i * rec, rec));
  }
  EXPECT_EQ(dummies, expected_dummies);

  std::vector<block_id> ids(count);
  std::vector<std::uint8_t> out(count * 32);
  many.decode_many(records, ids, out);
  std::vector<block_id> ids_only(count);
  many.decode_many(records, ids_only, {});
  EXPECT_EQ(ids_only, ids);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> payload(32);
    EXPECT_EQ(ids[i], one.decode(std::span(records).subspan(i * rec, rec),
                                 payload));
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           out.begin() + static_cast<std::ptrdiff_t>(i * 32)))
        << "record " << i;
  }
}

TEST(Codec, TamperedDecodeManyWritesNothing) {
  block_codec codec(32, true, 9);
  constexpr std::size_t count = 6;
  const std::size_t rec = codec.record_bytes();
  std::vector<std::uint8_t> records(count * rec);
  codec.encode_dummies(records);
  records[4 * rec + 20] ^= 0x08;
  std::vector<block_id> ids(count, 7);
  std::vector<std::uint8_t> out(count * 32, 0xee);
  EXPECT_THROW(codec.decode_many(records, ids, out), crypto::crypto_error);
  EXPECT_EQ(ids, std::vector<block_id>(count, 7));
  EXPECT_EQ(out, std::vector<std::uint8_t>(count * 32, 0xee));
}

TEST(Codec, ManyRejectsMismatchedBuffers) {
  block_codec codec(32, true, 10);
  const std::size_t rec = codec.record_bytes();
  std::vector<std::uint8_t> records(2 * rec);
  const std::vector<std::uint8_t> big(33);
  const std::vector<block_codec::block_ref> one_block = {{1, {}}};
  EXPECT_THROW(codec.encode_many(one_block, records), contract_error);
  const std::vector<block_codec::block_ref> oversized = {{1, big}, {2, {}}};
  EXPECT_THROW(codec.encode_many(oversized, records), contract_error);
  EXPECT_THROW(codec.encode_dummies(std::span(records).first(rec + 1)),
               contract_error);
  codec.encode_dummies(records);
  std::vector<block_id> ids(2);
  std::vector<std::uint8_t> out(2 * 32 - 1);
  EXPECT_THROW(codec.decode_many(records, ids, out), contract_error);
  EXPECT_THROW(codec.decode_many(std::span(records).first(rec), ids, {}),
               contract_error);
}

TEST(Codec, RecordSizeAccountsForSealing) {
  block_codec plain(32, false, 1);
  block_codec sealed(32, true, 1);
  EXPECT_EQ(plain.record_bytes(), 8u + 32u);
  EXPECT_EQ(sealed.record_bytes(), 8u + 32u + crypto::seal_overhead);
}

TEST(Codec, SealedRecordsOfSameBlockDiffer) {
  // Unlinkability: re-encoding the same (id, payload) yields a fresh
  // ciphertext every time.
  block_codec codec(32, true, 2);
  const std::vector<std::uint8_t> payload(32, 0x42);
  std::vector<std::uint8_t> a(codec.record_bytes());
  std::vector<std::uint8_t> b(codec.record_bytes());
  codec.encode(1, payload, a);
  codec.encode(1, payload, b);
  EXPECT_NE(a, b);
}

TEST(Codec, PlainDecodeNeedsNoAllocation) {
  // Smoke test for the bench fast path: decoding an unsealed record
  // must not throw and must not read past record_bytes.
  block_codec codec(16, false, 3);
  std::vector<std::uint8_t> record(codec.record_bytes() + 64, 0xaa);
  codec.encode(77, std::vector<std::uint8_t>(16, 1), record);
  std::vector<std::uint8_t> out(16);
  EXPECT_EQ(codec.decode(record, out), 77u);
}

using CodecLanes = test::lane_width_test;
INSTANTIATE_TEST_SUITE_P(Widths, CodecLanes, test::lane_widths(),
                         test::lane_width_name);

TEST_P(CodecLanes, GoldenSealedRecord) {
  // Captured before sealing moved into the record buffer: the bytes on
  // the wire (nonce counter 1, key seed 2019) must not change.
  block_codec codec(64, true, 2019);
  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(42, payload, record);  // nonce counter 0
  codec.encode(42, payload, record);  // nonce counter 1
  const std::vector<std::uint8_t> expected = {
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x3e, 0x21, 0x4a, 0xb9, 0xb0, 0x27, 0xba, 0xbc, 0x7b, 0x95, 0x64, 0x49,
      0xf6, 0x4e, 0x74, 0x6a, 0xb0, 0xe2, 0x37, 0x8e, 0x90, 0xfd, 0x2a, 0x25,
      0x75, 0xda, 0xf6, 0x27, 0x1d, 0x9b, 0xf4, 0x83, 0x0e, 0x8f, 0x5a, 0xc6,
      0x84, 0x2b, 0x40, 0x90, 0x63, 0x07, 0x70, 0xe4, 0xc8, 0x03, 0xd5, 0x1a,
      0x7c, 0xd2, 0xba, 0xc8, 0x21, 0x14, 0x6b, 0x54, 0xeb, 0x11, 0xe8, 0xd9,
      0xb6, 0xc8, 0xab, 0xfe, 0x32, 0xeb, 0xc3, 0x53, 0xfb, 0x05, 0x3c, 0x96,
      0x21, 0x9b, 0xd3, 0xa5, 0xe4, 0xfb, 0x8f, 0xf8,
  };
  EXPECT_EQ(record, expected);
  std::vector<std::uint8_t> out(64);
  EXPECT_EQ(codec.decode(record, out), 42u);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(codec.decode(record, {}), 42u);  // id only
}

/// Runs of `count` blocks, those with dummy(i) dummies and the rest real
/// blocks with distinct payloads (every fourth one short, so zero-padded).
struct block_run {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<block_codec::block_ref> blocks;

  block_run(std::size_t count, std::size_t payload_bytes,
            const std::function<bool(std::size_t)>& dummy) {
    payloads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t>& payload = payloads.emplace_back(
          i % 4 == 3 ? payload_bytes / 3 : payload_bytes);
      for (std::size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<std::uint8_t>(i * 13 + b * 7 + 1);
      }
      if (dummy(i)) {
        blocks.push_back({});
      } else {
        blocks.push_back({1000 + i, payload});
      }
    }
  }
};

// Dummy bodies are zero-filled rather than decrypted; the output must
// still be what a full decrypt gives, across run lengths either side of
// the kernel widths and the 64-record MAC and seal slices.
TEST_P(CodecLanes, DecodeManyMatchesDecodeAtEveryDummyShare) {
  constexpr std::size_t payload_bytes = 1024;  // 17 keystream blocks
  const std::vector<std::pair<const char*, std::function<bool(std::size_t)>>>
      shares = {{"no dummies", [](std::size_t) { return false; }},
                {"80% dummies", [](std::size_t i) { return i % 5 != 2; }},
                {"all dummies", [](std::size_t) { return true; }}};
  for (const std::size_t count : {1, 15, 16, 17, 63, 64, 65, 130}) {
    for (const auto& [share, dummy] : shares) {
      SCOPED_TRACE(std::to_string(count) + " records, " + share);
      block_codec codec(payload_bytes, true, 40 + count);
      const std::size_t rec = codec.record_bytes();
      const block_run run(count, payload_bytes, dummy);
      std::vector<std::uint8_t> records(count * rec);
      codec.encode_many(run.blocks, records);

      std::vector<block_id> ids(count, 7);
      std::vector<std::uint8_t> out(count * payload_bytes, 0xee);
      codec.decode_many(records, ids, out);
      std::vector<block_id> ids_only(count, 7);
      codec.decode_many(records, ids_only, {});
      EXPECT_EQ(ids_only, ids);
      std::vector<std::uint8_t> payload(payload_bytes);
      for (std::size_t i = 0; i < count; ++i) {
        std::fill(payload.begin(), payload.end(), 0x5a);
        ASSERT_EQ(ids[i], codec.decode(std::span(records).subspan(i * rec, rec),
                                       payload))
            << "record " << i;
        ASSERT_TRUE(std::equal(payload.begin(), payload.end(),
                               out.begin() + static_cast<std::ptrdiff_t>(
                                                 i * payload_bytes)))
            << "record " << i;
      }
    }
  }
}

// A dummy's body is never decrypted by decode_many(), but its MAC is
// still checked: a flipped byte anywhere in it fails the whole run
// before any output is written.
TEST_P(CodecLanes, TamperedDummyBodyFailsDecodeManyAndWritesNothing) {
  constexpr std::size_t payload_bytes = 1024;
  for (const std::size_t count : {1, 17, 65}) {
    block_codec codec(payload_bytes, true, 70 + count);
    const std::size_t rec = codec.record_bytes();
    const block_run run(count, payload_bytes, [&](std::size_t i) {
      return i == count / 2 || i % 3 == 0;
    });
    std::vector<std::uint8_t> records(count * rec);
    codec.encode_many(run.blocks, records);
    const std::size_t dummy = count / 2;
    // Body bytes past the id's keystream block: early, mid and last.
    for (const std::size_t offset :
         {crypto::seal_nonce_bytes + 64, crypto::seal_nonce_bytes + 600,
          crypto::seal_nonce_bytes + 8 + payload_bytes - 1}) {
      SCOPED_TRACE(std::to_string(count) + " records, byte " +
                   std::to_string(offset));
      std::vector<std::uint8_t> tampered = records;
      tampered[dummy * rec + offset] ^= 0x20;
      std::vector<block_id> ids(count, 7);
      std::vector<std::uint8_t> out(count * payload_bytes, 0xee);
      EXPECT_THROW(codec.decode_many(tampered, ids, out), crypto::crypto_error);
      EXPECT_EQ(ids, std::vector<block_id>(count, 7));
      EXPECT_EQ(out, std::vector<std::uint8_t>(count * payload_bytes, 0xee));
      EXPECT_THROW(codec.decode_many(tampered, ids, {}), crypto::crypto_error);
      EXPECT_EQ(ids, std::vector<block_id>(count, 7));
    }
  }
}

TEST(Codec, DummyWithPayloadIsAContractViolation) {
  block_codec codec(32, true, 11);
  const std::size_t rec = codec.record_bytes();
  const std::vector<std::uint8_t> payload(32, 0);
  std::vector<std::uint8_t> records(2 * rec);
  EXPECT_THROW(codec.encode(dummy_block_id, payload, records), contract_error);
  EXPECT_THROW(
      codec.encode(dummy_block_id, std::span(payload).first(1), records),
      contract_error);
  const std::vector<block_codec::block_ref> blocks = {
      {1, payload}, {dummy_block_id, payload}};
  EXPECT_THROW(codec.encode_many(blocks, records), contract_error);
  codec.encode(dummy_block_id, {}, records);
  codec.encode_many(std::vector<block_codec::block_ref>(2), records);
}

// encode_many() takes a payload that already sits in its own record
// (payload_in) and gives the bytes of encoding it from elsewhere.
TEST_P(CodecSealModes, EncodeManyInPlaceMatchesCopyForm) {
  block_codec in_place(40, GetParam(), 12);
  block_codec copied(40, GetParam(), 12);
  const std::size_t rec = in_place.record_bytes();
  const block_run run(5, 40, [](std::size_t i) { return i == 2; });
  std::vector<std::uint8_t> expected(5 * rec);
  copied.encode_many(run.blocks, expected);

  std::vector<std::uint8_t> records(5 * rec, 0x77);
  std::vector<block_codec::block_ref> refs(5);
  for (std::size_t i = 0; i < 5; ++i) {
    if (run.blocks[i].id == dummy_block_id) {
      continue;
    }
    const std::span<std::uint8_t> slot =
        in_place.payload_in(std::span(records).subspan(i * rec, rec));
    std::fill(slot.begin(), slot.end(), 0);
    std::copy(run.blocks[i].payload.begin(), run.blocks[i].payload.end(),
              slot.begin());
    refs[i] = {run.blocks[i].id, slot};
  }
  in_place.encode_many(refs, records);
  EXPECT_EQ(records, expected);
}

TEST(Codec, SealedDecodeIntoLargerBufferWritesPayloadOnly) {
  block_codec codec(300, true, 4);
  const std::vector<std::uint8_t> payload(300, 0x3c);
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(8, payload, record);
  std::vector<std::uint8_t> out(310, 0xff);
  EXPECT_EQ(codec.decode(record, out), 8u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), out.begin()));
  EXPECT_EQ(out[300], 0xff);
  EXPECT_EQ(out[309], 0xff);
}

TEST(Codec, DifferentKeySeedsCannotDecodeEachOther) {
  block_codec alice(32, true, 100);
  block_codec mallory(32, true, 101);
  std::vector<std::uint8_t> record(alice.record_bytes());
  alice.encode(5, std::vector<std::uint8_t>(32, 5), record);
  std::vector<std::uint8_t> out(32);
  EXPECT_THROW(mallory.decode(record, out), crypto::crypto_error);
}

// --------------------------------------------- fault injection e2e

TEST(FaultInjection, TamperedStoreRecordIsRejectedOnRead) {
  sim::block_device device(sim::dram_ddr4());
  block_codec codec(32, true, 9);
  storage::block_store store(device, 0, 8, codec.record_bytes(),
                             codec.record_bytes());
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(3, std::vector<std::uint8_t>(32, 3), record);
  store.write(2, record);

  // Bit rot / adversarial modification in untrusted storage.
  store.corrupt(2, 15, 0x40);

  std::vector<std::uint8_t> read_back(codec.record_bytes());
  store.read(2, read_back);
  std::vector<std::uint8_t> out(32);
  EXPECT_THROW(codec.decode(read_back, out), crypto::crypto_error);
}

TEST(FaultInjection, EveryByteOfTheRecordIsProtected) {
  sim::block_device device(sim::dram_ddr4());
  block_codec codec(16, true, 10);
  storage::block_store store(device, 0, 1, codec.record_bytes(),
                             codec.record_bytes());
  std::vector<std::uint8_t> record(codec.record_bytes());
  codec.encode(1, std::vector<std::uint8_t>(16, 1), record);

  for (std::size_t byte = 0; byte < codec.record_bytes(); ++byte) {
    store.write(0, record);
    store.corrupt(0, byte, 0x01);
    std::vector<std::uint8_t> read_back(codec.record_bytes());
    store.read(0, read_back);
    std::vector<std::uint8_t> out(16);
    EXPECT_THROW(codec.decode(read_back, out), crypto::crypto_error)
        << "byte " << byte << " not protected";
  }
}

// ------------------------------------------------------ position map

TEST(PositionMap, AssignLookupRemove) {
  position_map map(100);
  EXPECT_FALSE(map.contains(5));
  map.assign(5, 17);
  EXPECT_TRUE(map.contains(5));
  EXPECT_EQ(map.leaf_of(5), 17u);
  map.assign(5, 3);
  EXPECT_EQ(map.leaf_of(5), 3u);
  map.remove(5);
  EXPECT_FALSE(map.contains(5));
  EXPECT_THROW(static_cast<void>(map.leaf_of(5)), contract_error);
}

TEST(PositionMap, BoundsChecked) {
  position_map map(10);
  EXPECT_THROW(static_cast<void>(map.contains(10)), contract_error);
  EXPECT_THROW(map.assign(10, 0), contract_error);
}

TEST(PositionMap, SizeAndClear) {
  position_map map(50);
  for (block_id id = 0; id < 20; ++id) {
    map.assign(id, id);
  }
  EXPECT_EQ(map.size(), 20u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(PositionMap, MemoryBytesMatchesPaperFigure) {
  // Figure 4-1 annotates "Position map (4MB)": 2^19 entries * 8 B.
  position_map map(1 << 19);
  EXPECT_EQ(map.memory_bytes(), (1ULL << 19) * 8);
}

// ------------------------------------------------------------- stash

TEST(Stash, PutGetEraseAndPeak) {
  stash s;
  EXPECT_FALSE(s.contains(1));
  s.put(1, 10, std::vector<std::uint8_t>{1, 2, 3});
  s.put(2, 20, std::vector<std::uint8_t>{4});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(1).leaf, 10u);
  EXPECT_EQ(s.at(1).payload, (std::vector<std::uint8_t>{1, 2, 3}));
  s.erase(1);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.peak_size(), 2u);  // peak survives erase
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.peak_size(), 2u);
}

TEST(Stash, PutOverwritesInPlace) {
  stash s;
  s.put(7, 1, std::vector<std::uint8_t>{1});
  s.put(7, 2, std::vector<std::uint8_t>{2});
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.at(7).leaf, 2u);
  EXPECT_EQ(s.at(7).payload[0], 2);
}

}  // namespace
}  // namespace horam::oram
