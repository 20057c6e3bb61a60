// Shared typed flag registry for the CLI tools.
//
// Every tool used to hand-roll the same argv loop (string compare, `next()`
// helper, ad-hoc number validation, a usage() kept in sync by hand); the
// registry replaces that with typed flag declarations:
//
//   tools::FlagRegistry cli("tetra_sentinel");
//   cli.flag("--baseline", "FILE", "baseline trace (repeatable)", &baselines)
//      .flag("--alpha", "A", "KS significance level", &alpha)
//      .flag("--quiet", "suppress per-window output", &quiet);
//   switch (cli.parse(argc, argv)) {
//     case tools::FlagRegistry::Parse::Help: return 0;
//     case tools::FlagRegistry::Parse::Error: return 2;
//     case tools::FlagRegistry::Parse::Ok: break;
//   }
//
// Usage text is generated from the declarations, unknown flags and
// positional arguments are rejected (exit 2 convention), numeric flags
// validate their domain at parse time, and --help/-h is always available.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace tetra::tools {

/// Whole-string integer parse into [min, INT_MAX]: rejects trailing
/// characters ("4x"), fractions ("2.7") and out-of-range values.
inline bool parse_int(const std::string& text, int min, int* out) {
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || parsed < min ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

/// Whole-string parse of a finite floating-point number (no nan/inf).
inline bool parse_finite(const std::string& text, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

class FlagRegistry {
 public:
  enum class Parse { Ok, Help, Error };

  explicit FlagRegistry(std::string tool) : tool_(std::move(tool)) {}

  /// Boolean switch (no value).
  FlagRegistry& flag(const std::string& name, const std::string& help,
                     bool* out) {
    return add(name, "", help, false,
               [out](const std::string&, std::string*) {
                 *out = true;
                 return true;
               });
  }

  /// Switch running a callback (e.g. --mt / --st forcing a mode).
  FlagRegistry& flag(const std::string& name, const std::string& help,
                     std::function<void()> on_set) {
    return add(name, "", help, false,
               [fn = std::move(on_set)](const std::string&, std::string*) {
                 fn();
                 return true;
               });
  }

  /// String value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, std::string* out) {
    return add(name, metavar, help, true,
               [out](const std::string& value, std::string*) {
                 *out = value;
                 return true;
               });
  }

  /// Repeatable string value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help,
                     std::vector<std::string>* out) {
    return add(name, metavar, help, true,
               [out](const std::string& value, std::string*) {
                 out->push_back(value);
                 return true;
               });
  }

  /// Integer value with an inclusive lower bound.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, int* out,
                     int min = std::numeric_limits<int>::min()) {
    return add(name, metavar, help, true,
               [name, min, out](const std::string& value, std::string* error) {
                 if (parse_int(value, min, out)) return true;
                 *error = name + " expects an integer >= " +
                          std::to_string(min) + ", got '" + value + "'";
                 return false;
               });
  }

  /// Unsigned 64-bit value; rejects signs and values that overflow.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, std::uint64_t* out) {
    return add(name, metavar, help, true,
               [name, out](const std::string& value, std::string* error) {
                 char* end = nullptr;
                 errno = 0;
                 const unsigned long long parsed =
                     std::strtoull(value.c_str(), &end, 10);
                 if (end == value.c_str() || *end != '\0' ||
                     value.front() == '-' || errno == ERANGE) {
                   *error = name + " expects a non-negative integer, got '" +
                            value + "'";
                   return false;
                 }
                 *out = parsed;
                 return true;
               });
  }

  /// Strictly positive, finite floating-point value.
  FlagRegistry& flag(const std::string& name, const std::string& metavar,
                     const std::string& help, double* out) {
    return add(name, metavar, help, true,
               [name, out](const std::string& value, std::string* error) {
                 double parsed = 0.0;
                 if (!parse_finite(value, &parsed) || parsed <= 0.0) {
                   *error = name + " expects a finite positive number, got '" +
                            value + "'";
                   return false;
                 }
                 *out = parsed;
                 return true;
               });
  }

  /// Custom value parse; return false and fill *error to reject.
  FlagRegistry& flag(
      const std::string& name, const std::string& metavar,
      const std::string& help,
      std::function<bool(const std::string& value, std::string* error)>
          parse) {
    return add(name, metavar, help, true, std::move(parse));
  }

  /// Parses argv. On Error the diagnostic and usage text already went to
  /// stderr (tools map Error to exit 2); on Help the usage went to
  /// stderr and tools exit 0.
  Parse parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stderr, argv[0]);
        return Parse::Help;
      }
      const Flag* match = nullptr;
      for (const Flag& flag : flags_) {
        if (flag.name == arg) {
          match = &flag;
          break;
        }
      }
      if (match == nullptr) {
        if (arg.rfind("--", 0) == 0) {
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
        } else {
          std::fprintf(stderr, "error: unexpected positional argument '%s'\n",
                       arg.c_str());
        }
        print_usage(stderr, argv[0]);
        return Parse::Error;
      }
      std::string value;
      if (match->takes_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: %s expects a value (%s)\n",
                       match->name.c_str(), match->metavar.c_str());
          print_usage(stderr, argv[0]);
          return Parse::Error;
        }
        value = argv[++i];
      }
      std::string error;
      if (!match->handle(value, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        print_usage(stderr, argv[0]);
        return Parse::Error;
      }
    }
    return Parse::Ok;
  }

  /// Emits a usage diagnostic for a cross-flag constraint the registry
  /// cannot express (missing required flag, conflicting modes) and
  /// returns the usage exit code for `return cli.usage_error(...)`.
  int usage_error(const char* argv0, const std::string& message) const {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    print_usage(stderr, argv0);
    return 2;
  }

  void print_usage(std::FILE* out, const char* argv0) const {
    std::fprintf(out, "usage: %s [flags]\n", argv0);
    std::size_t width = 0;
    for (const Flag& flag : flags_) {
      width = std::max(width, flag.name.size() + 1 + flag.metavar.size());
    }
    for (const Flag& flag : flags_) {
      std::string left = flag.name;
      if (!flag.metavar.empty()) left += " " + flag.metavar;
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), left.c_str(),
                   flag.help.c_str());
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string metavar;
    std::string help;
    bool takes_value = false;
    std::function<bool(const std::string&, std::string*)> handle;
  };

  FlagRegistry& add(
      std::string name, std::string metavar, std::string help,
      bool takes_value,
      std::function<bool(const std::string&, std::string*)> handle) {
    flags_.push_back(Flag{std::move(name), std::move(metavar), std::move(help),
                          takes_value, std::move(handle)});
    return *this;
  }

  std::string tool_;
  std::vector<Flag> flags_;
};

}  // namespace tetra::tools
