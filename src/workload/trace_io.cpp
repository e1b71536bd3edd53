#include "workload/trace_io.h"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "workload/generators.h"

namespace horam::workload {

namespace {

/// Parses a whole unsigned decimal field no larger than `max`; throws
/// naming the 1-based file line on anything else: empty, a sign,
/// whitespace, trailing junk, or a value out of range (std::stoull
/// would accept the sign and the whitespace).
std::uint64_t parse_field(std::string_view text, const char* field,
                          std::uint64_t max, std::uint64_t file_line) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value > max) {
    throw std::runtime_error("trace line " + std::to_string(file_line) +
                             ": malformed " + field + " field '" +
                             std::string(text) + "'");
  }
  return value;
}

}  // namespace

void save_trace(std::ostream& out, const std::vector<request>& stream) {
  for (const request& req : stream) {
    out << (req.op == oram::op_kind::write ? 'W' : 'R') << ',' << req.id
        << ',' << req.user << '\n';
  }
}

std::vector<request> load_trace(std::istream& in,
                                std::size_t payload_bytes) {
  std::vector<request> stream;
  std::string line;
  /// 1-based file line, counted for every line read — including the
  /// blank and comment lines that never become requests — so error
  /// messages point at the line an editor shows.
  std::uint64_t file_line = 0;
  /// Per-id write ordinal: payloads depend only on (id, how many writes
  /// to that id precede this one), so inserting comments or replaying a
  /// prefix never changes what a given write stores, and
  /// save→load→save round-trips are byte-identical.
  std::unordered_map<oram::block_id, std::uint64_t> write_ordinal;
  while (std::getline(in, line)) {
    ++file_line;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string_view> fields;
    std::string_view rest = line;
    for (std::size_t comma = rest.find(','); comma != std::string_view::npos;
         comma = rest.find(',')) {
      fields.push_back(rest.substr(0, comma));
      rest.remove_prefix(comma + 1);
    }
    fields.push_back(rest);
    if (fields.size() < 2 || fields.size() > 3) {
      throw std::runtime_error("trace line " + std::to_string(file_line) +
                               ": expected 'op,id[,user]'");
    }
    const std::string_view op_text = fields[0];
    const std::string_view user_text = fields.size() == 3 ? fields[2] : "";

    request req;
    if (op_text == "W") {
      req.op = oram::op_kind::write;
    } else if (op_text == "R") {
      req.op = oram::op_kind::read;
    } else {
      throw std::runtime_error("trace line " + std::to_string(file_line) +
                               ": op must be R or W");
    }
    req.id = parse_field(fields[1], "id",
                         std::numeric_limits<oram::block_id>::max(),
                         file_line);
    req.user = user_text.empty()
                   ? 0
                   : static_cast<std::uint32_t>(parse_field(
                         user_text, "user",
                         std::numeric_limits<std::uint32_t>::max(),
                         file_line));
    if (req.op == oram::op_kind::write) {
      req.write_data =
          payload_for(req.id, write_ordinal[req.id]++, payload_bytes);
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

}  // namespace horam::workload
