// Tests of the request-trace CSV serialisation (workload/trace_io):
// save/load round-trips (including comments, blank lines and CRLF
// endings), malformed-input diagnostics that name the 1-based line of
// the *file* rather than of the parsed request stream (signs,
// whitespace, out-of-range values and extra fields included), and the
// payload model — write payloads derive from (id, per-id write
// ordinal), so a trace file fully determines the run and editing
// unrelated lines never changes what a write stores.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/generators.h"
#include "workload/trace_io.h"

namespace horam::workload {
namespace {

using oram::op_kind;

constexpr std::size_t kPayload = 24;

std::vector<request> load(const std::string& text) {
  std::istringstream in(text);
  return load_trace(in, kPayload);
}

std::string message_of(const std::string& text) {
  try {
    (void)load(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return {};
}

TEST(TraceIo, SaveThenLoadRoundTrips) {
  std::vector<request> stream;
  for (int i = 0; i < 20; ++i) {
    request req;
    req.op = (i % 3 == 0) ? op_kind::write : op_kind::read;
    req.id = static_cast<oram::block_id>(i * 7 % 13);
    req.user = static_cast<std::uint32_t>(i % 4);
    if (req.op == op_kind::write) {
      req.write_data = payload_for(req.id, 0, kPayload);  // placeholder
    }
    stream.push_back(std::move(req));
  }
  std::ostringstream out;
  save_trace(out, stream);
  const std::vector<request> loaded = load(out.str());

  ASSERT_EQ(loaded.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(loaded[i].op, stream[i].op) << "request " << i;
    EXPECT_EQ(loaded[i].id, stream[i].id) << "request " << i;
    EXPECT_EQ(loaded[i].user, stream[i].user) << "request " << i;
  }
}

TEST(TraceIo, SaveLoadSaveIsByteIdentical) {
  const std::string text = "W,3,1\nR,3,0\nW,3,2\nW,7,0\nR,7,1\n";
  const std::vector<request> first = load(text);
  std::ostringstream resaved;
  save_trace(resaved, first);
  EXPECT_EQ(resaved.str(), text);
  // And the payloads of a second load agree with the first: the file is
  // the whole truth.
  const std::vector<request> second = load(resaved.str());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].write_data, first[i].write_data) << "request " << i;
  }
}

TEST(TraceIo, SkipsCommentsBlankLinesAndTrailingCr) {
  const std::string text =
      "# a captured trace\r\n"
      "\r\n"
      "W,5,0\r\n"
      "\n"
      "# mid-stream comment\n"
      "R,5,1\r\n";
  const std::vector<request> stream = load(text);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].op, op_kind::write);
  EXPECT_EQ(stream[0].id, 5u);
  EXPECT_EQ(stream[1].op, op_kind::read);
  EXPECT_EQ(stream[1].user, 1u);
}

TEST(TraceIo, PayloadsComeFromIdAndWriteOrdinal) {
  const std::vector<request> stream = load("W,9,0\nW,4,0\nW,9,0\n");
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream[0].write_data, payload_for(9, 0, kPayload));
  EXPECT_EQ(stream[1].write_data, payload_for(4, 0, kPayload));
  EXPECT_EQ(stream[2].write_data, payload_for(9, 1, kPayload));
  EXPECT_NE(stream[0].write_data, stream[2].write_data)
      << "repeat writes to one id must store distinct payloads";
}

TEST(TraceIo, PayloadsSurviveCommentInsertionAndUnrelatedEdits) {
  // The same logical stream with comments injected and an unrelated
  // read added must store byte-identical payloads: payloads depend on
  // (id, per-id write ordinal), never on file position.
  const std::vector<request> plain = load("W,2,0\nW,2,0\nW,6,0\n");
  const std::vector<request> edited = load(
      "# header\n\nW,2,0\nR,100,0\n# between the writes\nW,2,0\n\nW,6,0\n");
  ASSERT_EQ(plain.size(), 3u);
  ASSERT_EQ(edited.size(), 4u);
  EXPECT_EQ(edited[0].write_data, plain[0].write_data);
  EXPECT_EQ(edited[2].write_data, plain[1].write_data);
  EXPECT_EQ(edited[3].write_data, plain[2].write_data);
}

TEST(TraceIo, MalformedOpNamesTheFileLine) {
  // Line 1 is a comment, line 2 blank, line 3 valid — the bad op sits
  // on *file* line 4, not request 2.
  const std::string message = message_of("# head\n\nR,1,0\nX,2,0\n");
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("op must be R or W"), std::string::npos)
      << message;
}

TEST(TraceIo, MalformedIdNamesTheFieldAndLine) {
  const std::string message = message_of("R,1,0\nW,abc,0\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed id"), std::string::npos) << message;
  EXPECT_NE(message.find("'abc'"), std::string::npos) << message;
}

TEST(TraceIo, TrailingJunkInANumberIsAnError) {
  // std::stoull would silently accept "12x" as 12; the loader must not.
  const std::string message = message_of("R,12x,0\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed id"), std::string::npos) << message;
}

TEST(TraceIo, MalformedUserNamesTheFieldAndLine) {
  const std::string message = message_of("R,1,0\n\nR,2,u7\n");
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed user"), std::string::npos) << message;
}

TEST(TraceIo, MissingFieldsAreAnError) {
  const std::string message = message_of("R\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("op,id"), std::string::npos) << message;
}

TEST(TraceIo, SignedNumbersAreAnError) {
  // std::stoull accepts a sign and would load "-1" as 2^64 - 1.
  std::string message = message_of("R,-1\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed id field '-1'"), std::string::npos)
      << message;
  message = message_of("R,1,0\nW,+3,-2\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed id field '+3'"), std::string::npos)
      << message;
  message = message_of("W,3,-2\n");
  EXPECT_NE(message.find("malformed user field '-2'"), std::string::npos)
      << message;
}

TEST(TraceIo, OutOfRangeNumbersAreAnError) {
  // Users are 32 bits wide: 2^32 must not wrap to user 0.
  std::string message = message_of("R,1,4294967296\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed user"), std::string::npos) << message;
  message = message_of("R,18446744073709551616\n");
  EXPECT_NE(message.find("malformed id"), std::string::npos) << message;
  // The widest values still load.
  const std::vector<request> widest =
      load("R,18446744073709551615,4294967295\n");
  ASSERT_EQ(widest.size(), 1u);
  EXPECT_EQ(widest[0].id, 18446744073709551615u);
  EXPECT_EQ(widest[0].user, 4294967295u);
}

TEST(TraceIo, ExtraFieldIsAnError) {
  // A fourth field would otherwise be dropped unseen.
  const std::string message = message_of("R,1,2\nR,1,2,junk\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("op,id"), std::string::npos) << message;
}

TEST(TraceIo, WhitespaceInANumberIsAnError) {
  // std::stoull skips leading whitespace; the loader must not.
  std::string message = message_of("R, 7\n");
  EXPECT_NE(message.find("malformed id field ' 7'"), std::string::npos)
      << message;
  message = message_of("R,7,\t1\n");
  EXPECT_NE(message.find("malformed user"), std::string::npos) << message;
}

TEST(TraceIo, OmittedUserDefaultsToZero) {
  const std::vector<request> stream = load("R,41\nR,42,\n");
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].user, 0u);
  EXPECT_EQ(stream[1].user, 0u);
}

// ------------------------------------------------ one line per case

struct line_case {
  const char* name;
  const char* line;
  /// Malformed lines: a substring of the error. Valid lines: null.
  const char* error;
  op_kind op = op_kind::read;
  oram::block_id id = 0;
  std::uint32_t user = 0;
};

const line_case kLineCases[] = {
    {"NegativeId", "R,-1", "malformed id field '-1'"},
    {"PlusSignedId", "W,+3,0", "malformed id field '+3'"},
    {"MinusZeroId", "R,-0", "malformed id field '-0'"},
    {"NegativeUser", "W,3,-2", "malformed user field '-2'"},
    {"PlusSignedUser", "R,3,+1", "malformed user field '+1'"},
    {"IdPastSixtyFourBits", "R,18446744073709551616", "malformed id"},
    {"UserPastThirtyTwoBits", "R,1,4294967296", "malformed user"},
    {"ZeroPaddedUserPastRange", "R,1,004294967296", "malformed user"},
    {"LeadingSpaceInId", "R, 7", "malformed id field ' 7'"},
    {"TrailingSpaceInId", "R,7 ,0", "malformed id field '7 '"},
    {"TabInUser", "R,7,\t1", "malformed user"},
    {"TrailingSpaceInUser", "R,7,1 ", "malformed user field '1 '"},
    {"HexId", "R,0x10", "malformed id field '0x10'"},
    {"ExponentId", "R,1e3", "malformed id field '1e3'"},
    {"FractionalId", "R,1.0", "malformed id field '1.0'"},
    {"EmptyId", "R,,3", "malformed id field ''"},
    {"AlphaUser", "R,2,u7", "malformed user field 'u7'"},
    {"InlineComment", "R,5 # hot", "malformed id field '5 # hot'"},
    {"FourFields", "R,1,2,junk", "expected 'op,id[,user]'"},
    {"TrailingCommaAfterUser", "R,1,2,", "expected 'op,id[,user]'"},
    {"OpAlone", "W", "expected 'op,id[,user]'"},
    {"SemicolonSeparated", "R;5", "expected 'op,id[,user]'"},
    {"UnknownOp", "X,2,0", "op must be R or W"},
    {"LowerCaseOp", "r,2", "op must be R or W"},
    {"EmptyOp", ",5", "op must be R or W"},
    {"WordOp", "READ,5", "op must be R or W"},
    {"LeadingSpaceInOp", " R,5", "op must be R or W"},
    {"Read", "R,0", nullptr, op_kind::read, 0, 0},
    {"WriteWithUser", "W,5,3", nullptr, op_kind::write, 5, 3},
    {"AllZerosId", "R,000", nullptr, op_kind::read, 0, 0},
    {"LeadingZerosAreDecimal", "R,007,010", nullptr, op_kind::read, 7, 10},
    {"WidestValues", "W,18446744073709551615,4294967295", nullptr,
     op_kind::write, 18446744073709551615u, 4294967295u},
    {"EmptyUser", "W,42,", nullptr, op_kind::write, 42, 0},
    {"CarriageReturn", "R,9,3\r", nullptr, op_kind::read, 9, 3},
};

class TraceLine : public ::testing::TestWithParam<line_case> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceLine, ::testing::ValuesIn(kLineCases),
    [](const ::testing::TestParamInfo<line_case>& info) {
      return std::string(info.param.name);
    });

// Each line sits on file line 3, after a comment and a valid request: a
// malformed one is rejected naming that line, a valid one loads as the
// request it spells.
TEST_P(TraceLine, LoadsOrNamesTheFileLine) {
  const line_case& c = GetParam();
  const std::string text = std::string("# header\nR,0\n") + c.line + "\n";
  if (c.error != nullptr) {
    const std::string message = message_of(text);
    EXPECT_NE(message.find("trace line 3:"), std::string::npos) << message;
    EXPECT_NE(message.find(c.error), std::string::npos) << message;
    return;
  }
  const std::vector<request> stream = load(text);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[1].op, c.op);
  EXPECT_EQ(stream[1].id, c.id);
  EXPECT_EQ(stream[1].user, c.user);
  EXPECT_EQ(stream[1].write_data.size(),
            c.op == op_kind::write ? kPayload : 0u);
}

}  // namespace
}  // namespace horam::workload
