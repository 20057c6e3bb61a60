// Trace (de)serialization. Two formats:
//  - JSONL: one JSON object per event, human-readable, used by the trace
//    database and for interoperability;
//  - estimated binary footprint accounting used for the paper's trace-size
//    numbers (the real tracer ships compact perf-buffer records).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::trace {

/// Serializes one event as a single-line JSON object (no trailing newline).
std::string to_jsonl(const TraceEvent& event);

/// Parses one JSONL line back into an event; throws on malformed input.
TraceEvent from_jsonl(std::string_view line);

/// Serializes a whole vector, one event per line.
std::string to_jsonl(const EventVector& events);

/// Per-call accounting of a lenient JSONL parse.
struct JsonlParseStats {
  std::size_t malformed_skipped = 0;
};

/// Decodes a JSONL document (empty lines ignored) into columns, strings
/// interned in order of first use. Throws on the first malformed line,
/// unless `lenient` is given: then malformed lines are skipped and counted
/// there and in the "trace.jsonl_malformed_skipped" telemetry counter — the
/// fleet-ingest posture where one corrupt line must not sink a whole
/// upload. A skipped line adds no row and interns no string.
EventColumns columns_from_jsonl(std::string_view text,
                                JsonlParseStats* lenient = nullptr);

/// materialize(columns_from_jsonl(text)).
EventVector events_from_jsonl(std::string_view text);

/// Writes events to a file; throws std::runtime_error on I/O failure.
void write_jsonl_file(const std::string& path, const EventVector& events);

/// Reads a JSONL file into events; throws std::runtime_error on I/O failure.
EventVector read_jsonl_file(const std::string& path);

/// Sum of approximate_record_size over all events — the compact on-the-wire
/// footprint the overhead evaluation reports.
std::size_t binary_footprint_bytes(const EventVector& events);

}  // namespace tetra::trace
