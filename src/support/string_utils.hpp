// Small string helpers shared across modules (topic-name annotation uses
// concatenation with stable separators; reports need fixed-width tables).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tetra {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a pseudo-address callback id the way tracers print pointers.
std::string hex_id(std::uint64_t id);

/// Appends hex_id(id) to `out` without a temporary string.
void append_hex_id(std::string& out, std::uint64_t id);

/// A minimal fixed-column text table for report output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tetra
