// Request-trace serialisation: simple CSV so traces can be captured,
// replayed and diffed across runs and implementations.
//
// Format: one line per request, "op,id,user" with op in {R, W}, id and
// user plain unsigned decimal (user fits 32 bits; omitted or empty = 0);
// signs, whitespace, out-of-range values and extra fields are errors.
// Blank lines and '#' comments are skipped, and a trailing CR (CRLF
// files) is tolerated. Write payloads are regenerated from (id, per-id write
// ordinal) via payload_for, so a trace file fully determines the run
// and inserting comments or reordering unrelated lines never changes
// what a write stores.
#ifndef HORAM_WORKLOAD_TRACE_IO_H
#define HORAM_WORKLOAD_TRACE_IO_H

#include <iosfwd>
#include <vector>

#include "core/controller.h"

namespace horam::workload {

/// Writes the stream as CSV.
void save_trace(std::ostream& out, const std::vector<request>& stream);

/// Parses a CSV trace; regenerates write payloads of `payload_bytes`.
/// Throws std::runtime_error on malformed input.
std::vector<request> load_trace(std::istream& in,
                                std::size_t payload_bytes);

}  // namespace horam::workload

#endif  // HORAM_WORKLOAD_TRACE_IO_H
