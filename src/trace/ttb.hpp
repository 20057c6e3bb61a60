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

/// Reads a whole trace file of either format. The format is sniffed from
/// the first bytes read — the .ttb magic selects TtbReader, anything else
/// is JSONL — and the path is opened once and read front to back, so
/// unseekable inputs such as a pipe on /dev/stdin work. A regular .ttb
/// file is memory-mapped as TtbReader does. With `lenient`, malformed
/// JSONL lines are skipped and counted there instead of thrown (.ttb input
/// is always validated strictly). Throws std::runtime_error on I/O failure
/// or a corrupt .ttb file, std::invalid_argument on a malformed JSONL line.
EventVector read_trace_file(const std::string& path,
                            JsonlParseStats* lenient = nullptr);

/// Read-side handle. Memory-maps the file where the platform allows
/// (read-only, private) and falls back to a buffered read elsewhere; either
/// way the header and every row are validated once at open, after which
/// view() exposes the columns zero-copy. Move-only.
class TtbReader {
 public:
  explicit TtbReader(const std::string& path);
  ~TtbReader();

  TtbReader(TtbReader&& other) noexcept;
  TtbReader& operator=(TtbReader&& other) noexcept;
  TtbReader(const TtbReader&) = delete;
  TtbReader& operator=(const TtbReader&) = delete;

  const ColumnsView& view() const { return view_; }
  std::size_t size() const { return view_.count; }

  /// Decodes every row back into heap TraceEvents (tests, conversion).
  EventVector materialize() const;

  /// Whether the file is served from an mmap (vs the read fallback).
  bool mapped() const { return mapped_; }

 private:
  friend EventVector read_trace_file(const std::string& path,
                                     JsonlParseStats* lenient);

  TtbReader() = default;
  /// Maps `input` when it is a regular file, else reads it to the end
  /// after `head` (the bytes already consumed), then parses.
  void load(FileInput& input, std::string head, const std::string& path);
  void parse(const char* data, std::size_t size, const std::string& path);
  void unmap();

  ColumnsView view_;
  /// The image when not mapped. A parsed image holds at least a header, so
  /// it never sits in the small-string buffer and moves keep view_ valid.
  std::string fallback_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  bool mapped_ = false;
};

}  // namespace tetra::trace
