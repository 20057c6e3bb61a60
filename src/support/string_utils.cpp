#include "support/string_utils.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace tetra {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args2);
    throw std::runtime_error("format: encoding error");
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string hex_id(std::uint64_t id) {
  std::string out;
  append_hex_id(out, id);
  return out;
}

void append_hex_id(std::string& out, std::uint64_t id) {
  char digits[16];
  const std::to_chars_result hex =
      std::to_chars(digits, digits + sizeof digits, id, 16);
  out += "0x";
  out.append(digits, hex.ptr);
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      line += "| ";
      const std::string& cell = c < row.size() ? row[c] : headers_[c];
      line += cell;
      line.append(widths[c] - cell.size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };
  std::string out = emit_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += "|";
    rule.append(widths[c] + 2, '-');
  }
  rule += "|\n";
  out += rule;
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

}  // namespace tetra
