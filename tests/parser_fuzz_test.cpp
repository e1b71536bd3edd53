// Seeded mutation fuzz of the two parsers that read bytes the system
// does not control: workload::load_trace (trace files) and
// block_codec::decode / decode_many (records on untrusted stores).
//
// Each test runs a fixed number of iterations from test::seed(), with
// no wall-clock cap, so every run mutates the same inputs. The
// ASan/UBSan build runs this binary too, which is where "never
// crashes" is checked byte for byte.
//
//   * Trace text: valid traces mutated by byte flips, inserts,
//     deletions, truncation and field duplication. load_trace must
//     either throw std::runtime_error or accept only well-formed lines,
//     and what it accepts must survive save_trace -> load_trace
//     unchanged.
//   * Sealed records: runs from encode() / encode_many() with bytes
//     flipped anywhere in nonce, ciphertext or tag. decode() and
//     decode_many() must throw crypto_error and write nothing.
//   * Unsealed records: any bytes decode to exactly those bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "oram/common/block_codec.h"
#include "test_support.h"
#include "util/rng.h"
#include "workload/trace_io.h"

namespace horam {
namespace {

using oram::block_codec;
using oram::block_id;

// ------------------------------------------------------------- traces

constexpr std::size_t kTracePayload = 16;

/// A valid trace mixing reads, writes, omitted users, comments, blank
/// lines and CRLF endings.
std::string valid_trace(util::random_source& rng) {
  std::string text;
  const std::uint64_t lines = 1 + util::uniform_below(rng, 12);
  for (std::uint64_t i = 0; i < lines; ++i) {
    switch (util::uniform_below(rng, 8)) {
      case 0:
        text += "# comment " + std::to_string(i);
        break;
      case 1:
        break;  // blank line
      default:
        text += util::bernoulli(rng, 0.5) ? 'W' : 'R';
        text += ',' + std::to_string(util::uniform_below(rng, 1000));
        if (util::bernoulli(rng, 0.8)) {
          text += ',' + std::to_string(util::uniform_below(rng, 70000));
        }
    }
    text += util::bernoulli(rng, 0.2) ? "\r\n" : "\n";
  }
  return text;
}

/// Bytes and strings a trace parser is most likely to mishandle.
constexpr std::string_view kTokens[] = {
    "-",  "+",  " ",  "\t", ",",  ",,", "\n", "\r", "#",  "R",
    "W",  "0",  "7",  "00", "x",  "-1", "+3", "4294967295",
    "4294967296", "18446744073709551615", "18446744073709551616",
    std::string_view("\0", 1)};

void mutate_trace(util::random_source& rng, std::string& text) {
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(
        util::uniform_below(rng, text.size() + extra));
  };
  switch (util::uniform_below(rng, 5)) {
    case 0:  // flip: overwrite one byte
      if (!text.empty()) {
        const std::string_view token =
            kTokens[util::uniform_below(rng, std::size(kTokens))];
        text[at(0)] = util::bernoulli(rng, 0.5)
                          ? token[0]
                          : static_cast<char>(util::uniform_below(rng, 256));
      }
      break;
    case 1:  // insert a token
      text.insert(at(1),
                  kTokens[util::uniform_below(rng, std::size(kTokens))]);
      break;
    case 2:  // delete one byte
      if (!text.empty()) {
        text.erase(at(0), 1);
      }
      break;
    case 3:  // truncate
      text.resize(at(1));
      break;
    default: {  // duplicate the field around a random position
      if (text.empty()) {
        break;
      }
      const std::size_t pos = at(0);
      std::size_t begin = text.find_last_of(",\n", pos);
      begin = begin == std::string::npos ? 0 : begin + 1;
      std::size_t end = text.find_first_of(",\r\n", pos);
      end = end == std::string::npos ? text.size() : end;
      if (begin <= end) {
        text.insert(end, "," + text.substr(begin, end - begin));
      }
    }
  }
}

/// True iff `s` is decimal digits whose value is at most `max` (itself
/// written without leading zeros).
bool decimal_at_most(std::string_view s, std::string_view max) {
  if (s.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  s.remove_prefix(std::min(s.find_first_not_of('0'), s.size()));
  return s.size() < max.size() || (s.size() == max.size() && s <= max);
}

/// The accepted grammar, checked independently of the loader: after
/// one trailing CR a line is blank, a comment, or "R|W,id[,user]" with
/// a 64-bit id and an optional (possibly empty) 32-bit user.
bool well_formed(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  if (line.empty() || line[0] == '#') {
    return true;
  }
  if (line.size() < 3 || (line[0] != 'R' && line[0] != 'W') ||
      line[1] != ',') {
    return false;
  }
  const std::string_view rest = line.substr(2);
  const std::size_t comma = rest.find(',');
  const std::string_view id = rest.substr(0, comma);
  const std::string_view user =
      comma == std::string_view::npos ? "" : rest.substr(comma + 1);
  return !id.empty() && decimal_at_most(id, "18446744073709551615") &&
         decimal_at_most(user, "4294967295");
}

std::vector<request> load(const std::string& text) {
  std::istringstream in(text);
  return workload::load_trace(in, kTracePayload);
}

TEST(ParserFuzz, TraceMutationsThrowOrRoundTrip) {
  util::pcg64 rng(test::seed(0x7472));
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (int iteration = 0; iteration < 120000; ++iteration) {
    std::string text = valid_trace(rng);
    const std::uint64_t mutations = 1 + util::uniform_below(rng, 4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      mutate_trace(rng, text);
    }
    std::vector<request> loaded;
    try {
      loaded = load(text);
    } catch (const std::runtime_error& error) {
      ++rejected;
      ASSERT_EQ(std::string_view(error.what()).substr(0, 11), "trace line ")
          << error.what();
      continue;
    }
    ++accepted;

    std::istringstream lines(text);
    std::size_t requests = 0;
    for (std::string line; std::getline(lines, line);) {
      ASSERT_TRUE(well_formed(line))
          << "accepted malformed line '" << line << "' in:\n" << text;
      requests += !line.empty() && line != "\r" && line[0] != '#';
    }
    ASSERT_EQ(loaded.size(), requests) << text;

    std::ostringstream saved;
    workload::save_trace(saved, loaded);
    const std::vector<request> again = load(saved.str());
    ASSERT_EQ(again.size(), loaded.size()) << text;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      ASSERT_EQ(again[i].op, loaded[i].op) << text;
      ASSERT_EQ(again[i].id, loaded[i].id) << text;
      ASSERT_EQ(again[i].user, loaded[i].user) << text;
      ASSERT_EQ(again[i].write_data, loaded[i].write_data) << text;
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// ------------------------------------------------------------- records

/// A run of `count` back-to-back records of random real and dummy
/// blocks, sealed one at a time or as one batch.
std::vector<std::uint8_t> encode_run(util::random_source& rng,
                                     block_codec& codec, std::size_t count) {
  std::vector<block_id> ids(count);
  std::vector<std::vector<std::uint8_t>> payloads(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids[i] = util::bernoulli(rng, 0.3) ? oram::dummy_block_id
                                       : util::uniform_below(rng, 1 << 20);
    if (ids[i] != oram::dummy_block_id) {
      payloads[i].resize(codec.payload_bytes());
      for (std::uint8_t& byte : payloads[i]) {
        byte = static_cast<std::uint8_t>(util::uniform_below(rng, 256));
      }
    }
  }
  std::vector<std::uint8_t> records(count * codec.record_bytes());
  if (util::bernoulli(rng, 0.5)) {
    std::vector<block_codec::block_ref> refs(count);
    for (std::size_t i = 0; i < count; ++i) {
      refs[i] = block_codec::block_ref{ids[i], payloads[i]};
    }
    codec.encode_many(refs, records);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      codec.encode(ids[i], payloads[i],
                   std::span<std::uint8_t>(records).subspan(
                       i * codec.record_bytes(), codec.record_bytes()));
    }
  }
  return records;
}

/// XORs a nonzero value into 1-4 distinct random bytes of the run;
/// returns the index of every record touched (with repeats).
std::vector<std::size_t> corrupt(util::random_source& rng,
                                 std::vector<std::uint8_t>& records,
                                 std::size_t record_bytes) {
  std::vector<std::size_t> positions;
  const std::uint64_t flips = 1 + util::uniform_below(rng, 4);
  while (positions.size() < flips) {
    const std::size_t at = util::uniform_below(rng, records.size());
    if (std::find(positions.begin(), positions.end(), at) == positions.end()) {
      positions.push_back(at);
    }
  }
  std::vector<std::size_t> touched;
  for (const std::size_t at : positions) {
    records[at] ^= static_cast<std::uint8_t>(1 + util::uniform_below(rng, 255));
    touched.push_back(at / record_bytes);
  }
  return touched;
}

constexpr std::uint8_t kUntouched = 0xa5;
constexpr block_id kUntouchedId = 0xa5a5a5a5a5a5a5a5ULL;

TEST(ParserFuzz, CorruptedSealedRecordsThrowAndWriteNothing) {
  util::pcg64 rng(test::seed(0x5365));
  for (const std::size_t payload_bytes : {std::size_t{8}, std::size_t{40},
                                          std::size_t{1024}}) {
    block_codec codec(payload_bytes, /*seal=*/true, 0x1234 + payload_bytes);
    const std::size_t record_bytes = codec.record_bytes();
    const int iterations = payload_bytes == 1024 ? 3000 : 12000;
    for (int iteration = 0; iteration < iterations; ++iteration) {
      const std::size_t count = 1 + util::uniform_below(rng, 9);
      std::vector<std::uint8_t> records = encode_run(rng, codec, count);
      const std::vector<std::size_t> touched =
          corrupt(rng, records, record_bytes);

      std::vector<block_id> ids(count, kUntouchedId);
      std::vector<std::uint8_t> payloads(count * payload_bytes, kUntouched);
      ASSERT_THROW(codec.decode_many(records, ids, payloads),
                   crypto::crypto_error)
          << "payload " << payload_bytes << " iteration " << iteration;
      ASSERT_EQ(ids, std::vector<block_id>(count, kUntouchedId));
      ASSERT_EQ(payloads,
                std::vector<std::uint8_t>(count * payload_bytes, kUntouched));

      for (const std::size_t r : touched) {
        std::vector<std::uint8_t> payload(payload_bytes, kUntouched);
        ASSERT_THROW(
            (void)codec.decode(std::span<const std::uint8_t>(records).subspan(
                                   r * record_bytes, record_bytes),
                               payload),
            crypto::crypto_error);
        ASSERT_EQ(payload,
                  std::vector<std::uint8_t>(payload_bytes, kUntouched));
      }
    }
  }
}

TEST(ParserFuzz, UnsealedRecordsDecodeToTheirBytes) {
  util::pcg64 rng(test::seed(0x506c));
  constexpr std::size_t payload_bytes = 24;
  block_codec codec(payload_bytes, /*seal=*/false, 0);
  const std::size_t record_bytes = codec.record_bytes();
  for (int iteration = 0; iteration < 40000; ++iteration) {
    const std::size_t count = 1 + util::uniform_below(rng, 9);
    std::vector<std::uint8_t> records = encode_run(rng, codec, count);
    (void)corrupt(rng, records, record_bytes);

    std::vector<block_id> ids(count);
    std::vector<std::uint8_t> payloads(count * payload_bytes);
    codec.decode_many(records, ids, payloads);
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint8_t* record = records.data() + r * record_bytes;
      block_id expected = 0;
      for (int b = 0; b < 8; ++b) {
        expected |= static_cast<block_id>(record[b]) << (8 * b);
      }
      std::vector<std::uint8_t> payload(payload_bytes);
      ASSERT_EQ(codec.decode(std::span<const std::uint8_t>(record,
                                                           record_bytes),
                             payload),
                expected);
      ASSERT_EQ(ids[r], expected);
      ASSERT_TRUE(std::equal(payload.begin(), payload.end(), record + 8));
      ASSERT_TRUE(std::equal(payload.begin(), payload.end(),
                             payloads.begin() + r * payload_bytes));
    }
  }
}

}  // namespace
}  // namespace horam
