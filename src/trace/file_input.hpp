// Internal to trace/: the one path by which trace files are read. Both
// read_jsonl_file and the .ttb readers go through FileInput, so pipes,
// regular files and missing paths behave the same for either format.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>

namespace tetra::trace {

/// One file opened for reading and consumed front to back, never reopened
/// or seeked, so pipes and other unseekable inputs work.
class FileInput {
 public:
  /// Throws std::runtime_error when the path cannot be opened.
  explicit FileInput(const std::string& path);
  ~FileInput();
  FileInput(const FileInput&) = delete;
  FileInput& operator=(const FileInput&) = delete;

  /// Reads up to `len` bytes; fewer only at the end of the input.
  std::size_t read(char* out, std::size_t len);

  /// Appends the rest of the input to `out`: a regular file in one read of
  /// its known size, anything else in chunks until the end.
  void read_rest(std::string& out);

  /// Maps a regular, non-empty file whole (read-only, private); nullptr
  /// for any other input or when the platform cannot map it.
  void* map() const;

  /// Size of a regular file at open; 0 for any other input.
  std::size_t regular_size() const { return regular_size_.value_or(0); }

 private:
  std::FILE* file_;
  std::string path_;
  std::optional<std::size_t> regular_size_;
};

}  // namespace tetra::trace
