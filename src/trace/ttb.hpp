// tetra trace binary (.ttb): the on-disk twin of EventColumns. One small
// header followed by the eight fixed-width columns and the string table,
// laid out so a memory map of the file IS a valid ColumnsView — ingestion
// becomes a handful of pointer fixups plus one validation scan instead of
// per-line JSON parsing. See docs/TRACE_FORMAT.md for the byte layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event_columns.hpp"

namespace tetra::trace {

inline constexpr char kTtbMagic[8] = {'t', 'e', 't', 'r', 'a', 'T', 'T', 'B'};
inline constexpr std::uint32_t kTtbVersion = 1;
inline constexpr std::uint32_t kTtbEndianProbe = 0x0A0B0C0D;
inline constexpr std::size_t kTtbHeaderSize = 40;

/// Writes a .ttb file. Event order is preserved exactly — conversion never
/// sorts, so JSONL -> ttb -> JSONL is byte-identical.
void write_ttb_file(const std::string& path, const ColumnsView& view);
void write_ttb_file(const std::string& path, const EventColumns& columns);
void write_ttb_file(const std::string& path, const EventVector& events);

struct JsonlParseStats;
class FileInput;

/// Reads a whole trace file of either format into owned columns, never
/// through TraceEvents. The format is sniffed from the first bytes read:
/// the .ttb magic selects TtbReader, whose validated map is copied out one
/// column at a time; anything else is decoded by columns_from_jsonl. The
/// path is opened once and read front to back, so a pipe on /dev/stdin
/// works. With `lenient`, malformed JSONL lines are skipped and counted
/// there instead of thrown (.ttb input is always validated strictly).
/// Opens one "trace.decode" span (items = rows). Throws std::runtime_error
/// on I/O failure or a corrupt .ttb file, and as columns_from_jsonl does
/// on a malformed JSONL line.
EventColumns read_trace_file(const std::string& path,
                             JsonlParseStats* lenient = nullptr);

/// Read-side handle. Memory-maps the file where the platform allows
/// (read-only, private) and falls back to a buffered read elsewhere; either
/// way the header and every row are validated once at open, after which
/// view() exposes the columns zero-copy for the reader's lifetime.
/// Neither copyable nor movable.
class TtbReader {
 public:
  explicit TtbReader(const std::string& path);
  ~TtbReader();

  TtbReader(const TtbReader&) = delete;
  TtbReader& operator=(const TtbReader&) = delete;

  const ColumnsView& view() const { return view_; }
  std::size_t size() const { return view_.count; }

  /// Decodes every row back into heap TraceEvents (tests, conversion).
  EventVector materialize() const;

  /// Whether the file is served from an mmap (vs the read fallback).
  bool mapped() const { return map_ != nullptr; }

 private:
  friend EventColumns read_trace_file(const std::string& path,
                                      JsonlParseStats* lenient);

  TtbReader() = default;
  /// Maps `input` when it is a regular file, else reads it to the end
  /// after `head` (the bytes already consumed), then parses.
  void load(FileInput& input, std::string head, const std::string& path);
  void parse(const char* data, std::size_t size, const std::string& path);
  void unmap();

  ColumnsView view_;
  std::string fallback_;  ///< the image when not mapped
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
};

}  // namespace tetra::trace
