#include "trace/ttb.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/file_input.hpp"
#include "trace/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TETRA_TTB_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace tetra::trace {

namespace {

/// Bytes of zero padding after the three byte columns so the string-offset
/// array lands on a 4-byte boundary.
std::size_t byte_column_pad(std::uint64_t count) {
  return (4 - (3 * count) % 4) % 4;
}

void write_bytes(std::ofstream& f, const void* data, std::size_t len) {
  if (len == 0) return;
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
}

}  // namespace

void write_ttb_file(const std::string& path, const ColumnsView& v) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for write: " + path);

  char header[kTtbHeaderSize] = {};
  std::memcpy(header, kTtbMagic, sizeof(kTtbMagic));
  std::memcpy(header + 8, &kTtbVersion, 4);
  std::memcpy(header + 12, &kTtbEndianProbe, 4);
  const std::uint64_t count = v.count;
  const std::uint64_t string_count = v.string_count;
  const std::uint64_t blob_bytes = v.blob_size;
  std::memcpy(header + 16, &count, 8);
  std::memcpy(header + 24, &string_count, 8);
  std::memcpy(header + 32, &blob_bytes, 8);
  write_bytes(f, header, sizeof(header));

  write_bytes(f, v.time, 8 * v.count);
  write_bytes(f, v.arg_a, 8 * v.count);
  write_bytes(f, v.arg_b, 8 * v.count);
  write_bytes(f, v.pid, 4 * v.count);
  write_bytes(f, v.arg_c, 4 * v.count);
  write_bytes(f, v.probe, v.count);
  write_bytes(f, v.type, v.count);
  write_bytes(f, v.aux, v.count);
  const char zeros[4] = {};
  write_bytes(f, zeros, byte_column_pad(count));
  write_bytes(f, v.str_offsets, 4 * (v.string_count + 1));
  write_bytes(f, v.blob, v.blob_size);

  if (!f) throw std::runtime_error("write failed: " + path);
}

void write_ttb_file(const std::string& path, const EventColumns& columns) {
  write_ttb_file(path, columns.view());
}

void write_ttb_file(const std::string& path, const EventVector& events) {
  EventColumns columns;
  columns.append(events);
  write_ttb_file(path, columns.view());
}

EventColumns read_trace_file(const std::string& path,
                             JsonlParseStats* lenient) {
  telemetry::ScopedSpan span("trace.decode");
  FileInput input(path);
  std::string head(sizeof(kTtbMagic), '\0');
  head.resize(input.read(head.data(), head.size()));
  EventColumns columns;
  if (head == std::string_view(kTtbMagic, sizeof(kTtbMagic))) {
    TtbReader reader;
    reader.load(input, std::move(head), path);
    columns.append(reader.view());
  } else {
    std::string text = std::move(head);
    input.read_rest(text);
    columns = columns_from_jsonl(text, lenient);
  }
  span.set_items(columns.size());
  return columns;
}

void TtbReader::parse(const char* data, std::size_t size,
                      const std::string& path) {
  if (size < kTtbHeaderSize) {
    throw std::runtime_error("truncated ttb file: " + path);
  }
  if (std::memcmp(data, kTtbMagic, sizeof(kTtbMagic)) != 0) {
    throw std::runtime_error("not a ttb file: " + path);
  }
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::memcpy(&version, data + 8, 4);
  std::memcpy(&endian, data + 12, 4);
  if (endian != kTtbEndianProbe) {
    throw std::runtime_error("ttb endianness mismatch: " + path);
  }
  if (version != kTtbVersion) {
    throw std::runtime_error("unsupported ttb version " +
                             std::to_string(version) + ": " + path);
  }
  std::uint64_t count = 0;
  std::uint64_t string_count = 0;
  std::uint64_t blob_bytes = 0;
  std::memcpy(&count, data + 16, 8);
  std::memcpy(&string_count, data + 24, 8);
  std::memcpy(&blob_bytes, data + 32, 8);
  // Reject sizes the file cannot possibly hold before doing arithmetic on
  // them (overflow safety for corrupt headers).
  if (count > size / 8 || string_count > size / 4 || blob_bytes > size) {
    throw std::runtime_error("truncated ttb file: " + path);
  }
  const std::uint64_t expected =
      kTtbHeaderSize + 24 * count /* time, arg_a, arg_b */ +
      8 * count /* pid, arg_c */ + 3 * count /* probe, type, aux */ +
      byte_column_pad(count) + 4 * (string_count + 1) + blob_bytes;
  if (expected != size) {
    throw std::runtime_error("ttb size mismatch (expected " +
                             std::to_string(expected) + " bytes, file has " +
                             std::to_string(size) + "): " + path);
  }

  ColumnsView v;
  const char* p = data + kTtbHeaderSize;
  v.time = reinterpret_cast<const std::int64_t*>(p);
  p += 8 * count;
  v.arg_a = reinterpret_cast<const std::uint64_t*>(p);
  p += 8 * count;
  v.arg_b = reinterpret_cast<const std::int64_t*>(p);
  p += 8 * count;
  v.pid = reinterpret_cast<const std::int32_t*>(p);
  p += 4 * count;
  v.arg_c = reinterpret_cast<const std::uint32_t*>(p);
  p += 4 * count;
  v.probe = reinterpret_cast<const std::uint8_t*>(p);
  p += count;
  v.type = reinterpret_cast<const std::uint8_t*>(p);
  p += count;
  v.aux = reinterpret_cast<const std::uint8_t*>(p);
  p += count + byte_column_pad(count);
  v.str_offsets = reinterpret_cast<const std::uint32_t*>(p);
  p += 4 * (string_count + 1);
  v.blob = p;
  v.count = static_cast<std::size_t>(count);
  v.string_count = static_cast<std::size_t>(string_count);
  v.blob_size = static_cast<std::size_t>(blob_bytes);

  if (v.str_offsets[0] != 0) {
    throw std::runtime_error("corrupt ttb string table: " + path);
  }
  for (std::uint64_t i = 0; i < string_count; ++i) {
    if (v.str_offsets[i] > v.str_offsets[i + 1] ||
        v.str_offsets[i + 1] > blob_bytes) {
      throw std::runtime_error("corrupt ttb string table: " + path);
    }
  }
  try {
    validate_columns(v);
  } catch (const std::invalid_argument& e) {
    // Normalize to the reader's contract: opening a corrupt file is a
    // runtime_error naming the file, whatever the row-level detail.
    throw std::runtime_error("corrupt ttb file " + path + ": " + e.what());
  }
  view_ = v;
  static telemetry::Counter& bytes_counter =
      telemetry::MetricsRegistry::global().counter("trace.ttb_bytes");
  static telemetry::Counter& events_counter =
      telemetry::MetricsRegistry::global().counter("trace.ttb_events");
  bytes_counter.add(size);
  events_counter.add(v.count);
}

TtbReader::TtbReader(const std::string& path) {
  FileInput input(path);
  load(input, {}, path);
}

void TtbReader::load(FileInput& input, std::string head,
                     const std::string& path) {
  if (void* map = input.map()) {
    map_ = map;
    map_size_ = input.regular_size();
    try {
      parse(static_cast<const char*>(map_), map_size_, path);
    } catch (...) {
      unmap();
      throw;
    }
    return;
  }
  fallback_ = std::move(head);
  input.read_rest(fallback_);
  parse(fallback_.data(), fallback_.size(), path);
}

TtbReader::~TtbReader() { unmap(); }

void TtbReader::unmap() {
#if TETRA_TTB_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
#endif
}

EventVector TtbReader::materialize() const {
  return trace::materialize(view_);
}

}  // namespace tetra::trace
