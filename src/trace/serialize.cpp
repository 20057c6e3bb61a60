#include "trace/serialize.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "support/json_parser.hpp"
#include "support/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "trace/file_input.hpp"

namespace tetra::trace {

namespace {

struct JsonlMetrics {
  telemetry::Counter& bytes =
      telemetry::MetricsRegistry::global().counter("trace.jsonl_bytes");
  telemetry::Counter& events =
      telemetry::MetricsRegistry::global().counter("trace.jsonl_events");
  telemetry::Counter& malformed = telemetry::MetricsRegistry::global().counter(
      "trace.jsonl_malformed_skipped");

  static JsonlMetrics& get() {
    static JsonlMetrics metrics;
    return metrics;
  }
};

void write_common(JsonWriter& w, const TraceEvent& e) {
  w.kv("t", e.time.count_ns());
  w.kv("pid", static_cast<std::int64_t>(e.pid));
  w.kv("probe", to_string(e.probe));
  w.kv("type", to_string(e.type));
}

// The keys to_jsonl writes. Every other key is ignored.
enum Field : std::uint8_t {
  kTime, kPid, kProbe, kType, kNode, kKind, kCb, kTakeKind, kTopic, kSrcTs,
  kDispatch, kCpu, kPrevPid, kPrevPrio, kPrevState, kNextPid, kNextPrio,
  kWokenPid, kFieldCount
};

// Views of string literals, so data() is NUL-terminated for messages.
constexpr std::string_view kFieldNames[kFieldCount] = {
    "t",        "pid",       "probe",     "type",      "node",
    "kind",     "cb",        "take_kind", "topic",     "src_ts",
    "dispatch", "cpu",       "prev_pid",  "prev_prio", "prev_state",
    "next_pid", "next_prio", "woken_pid"};

// The key to_jsonl writes after each key, laid out as kFieldNames, and
// last for a key outside the schema. kFieldCount where an object ends and
// after "type", whose value picks the next key (key_after_type).
constexpr Field kNextField[kFieldCount + 1] = {
    kPid,        kProbe,      kType,     kFieldCount, kFieldCount,
    kFieldCount, kTopic,      kCb,       kSrcTs,      kFieldCount,
    kFieldCount, kPrevPid,    kPrevPrio, kPrevState,  kNextPid,
    kNextPrio,   kFieldCount, kCpu,      kFieldCount};

// The first key to_jsonl writes after "type", from the type's name told
// apart by length as event_type_from_string does. A name that is no event
// type predicts a key that then only misses.
Field key_after_type(std::string_view type) {
  switch (type.size()) {
    case 4: return kTakeKind;                           // take
    case 6:                                             // cb_end
    case 8: return kKind;                               // cb_start
    case 9: return kTopic;                              // dds_write
    case 10:                                            // timer_call
    case 13: return kCb;                                // sync_operator
    case 12: return type[6] == 's' ? kCpu : kWokenPid;  // sched_*
    case 15: return kNode;                              // rmw_create_node
    case 16: return kDispatch;                          // take_type_erased
    default: return kFieldCount;
  }
}

// Length and first letter pick at most one candidate; one compare confirms
// it. Returns kFieldCount for a key outside the schema.
Field field_of(std::string_view key) {
  if (key.empty()) return kFieldCount;
  const char c = key[0];
  Field f = kFieldCount;
  switch (key.size()) {
    case 1: f = kTime; break;
    case 2: f = kCb; break;
    case 3: f = c == 'p' ? kPid : kCpu; break;
    case 4: f = c == 't' ? kType : c == 'n' ? kNode : kKind; break;
    case 5: f = c == 'p' ? kProbe : kTopic; break;
    case 6: f = kSrcTs; break;
    case 8: f = c == 'd' ? kDispatch : c == 'p' ? kPrevPid : kNextPid; break;
    case 9:
      f = c == 't'   ? kTakeKind
          : c == 'p' ? kPrevPrio
          : c == 'n' ? kNextPrio
                     : kWokenPid;
      break;
    case 10: f = kPrevState; break;
    default: return kFieldCount;
  }
  return key == kFieldNames[f] ? f : kFieldCount;
}

// One scanned value. Deliberately trivial, so a line pays nothing for the
// slots its keys do not fill; LineDecoder::present_ says which are filled.
struct Slot {
  enum Kind : std::uint8_t { Other, Bool, Int, Double, Text, EscapedText };
  Kind kind;
  bool boolean;
  std::int64_t integer;
  double real;
  // Text: the characters between the quotes. EscapedText: `begin` is the
  // opening quote; the string is decoded only if a field reads it.
  std::size_t begin;
  std::size_t size;
};

CallbackKind callback_kind_from_string(std::string_view kind) {
  if (kind == "timer") return CallbackKind::Timer;
  if (kind == "subscriber") return CallbackKind::Subscription;
  if (kind == "service") return CallbackKind::Service;
  if (kind == "client") return CallbackKind::Client;
  throw std::runtime_error("bad callback kind: " + std::string(kind));
}

// Single-pass decoder for one JSONL line. It accepts and rejects exactly
// what parse_json followed by the schema lookups would, with the same
// exception types: std::runtime_error for syntax, std::out_of_range for a
// missing key, std::logic_error for a value of the wrong JSON type and
// std::invalid_argument for a value outside its field's domain. Duplicate
// keys keep their first value. Escaped strings and nested values are
// handed to parse_json_prefix, which validates and decodes them.
//
// Nothing with a destructor is alive while a check can throw, so a
// rejected line unwinds without running cleanups. That keeps lenient
// decoding of a damaged file cheap, since it pays for every bad line.
class LineDecoder {
 public:
  explicit LineDecoder(std::string_view line) : line_(line) {}

  /// Appends the line's event to `out` as one packed row. The row's string
  /// is interned only after every field has passed its check, so a
  /// rejected line leaves `out` untouched.
  void decode(EventColumns& out) {
    scan_object();
    PackedRow row;
    row.time = integer(kTime);
    row.pid = int32(kPid);
    row.probe = static_cast<std::uint8_t>(probe_id_from_string(text(kProbe)));
    const EventType type = event_type_from_string(text(kType));
    row.type = static_cast<std::uint8_t>(type);
    std::string_view str;  // node name or topic
    switch (type) {
      case EventType::RmwCreateNode:
        str = text(kNode);
        break;
      case EventType::CallbackStart:
      case EventType::CallbackEnd:
        row.aux = static_cast<std::uint8_t>(
            callback_kind_from_string(text(kKind)));
        break;
      case EventType::TimerCall:
      case EventType::SyncOperator:
        row.arg_a = static_cast<std::uint64_t>(integer(kCb));
        break;
      case EventType::Take:
        row.aux = static_cast<std::uint8_t>(
            take_kind_from_int(integer(kTakeKind)));
        row.arg_a = static_cast<std::uint64_t>(integer(kCb));
        str = text(kTopic);
        row.arg_b = integer(kSrcTs);
        break;
      case EventType::TakeTypeErased:
        row.aux = boolean(kDispatch) ? 1 : 0;
        break;
      case EventType::DdsWrite:
        str = text(kTopic);
        row.arg_b = integer(kSrcTs);
        break;
      case EventType::SchedSwitch: {
        const std::int32_t cpu = int32(kCpu);
        const std::int32_t prev_pid = int32(kPrevPid);
        const std::int32_t prev_prio = int32(kPrevPrio);
        const std::string_view st = text(kPrevState);
        if (st.size() != 1) {
          throw std::invalid_argument("bad prev_state: '" + std::string(st) +
                                      "' (expected a single R/S/D/X letter)");
        }
        row.aux = static_cast<std::uint8_t>(
            static_cast<char>(thread_run_state_from_char(st[0])));
        row.arg_a = pack_pid_pair(prev_pid, int32(kNextPid));
        row.arg_b = static_cast<std::int64_t>(pack_pid_pair(cpu, prev_prio));
        row.arg_c = static_cast<std::uint32_t>(int32(kNextPrio));
        break;
      }
      case EventType::SchedWakeup: {
        const std::int32_t woken_pid = int32(kWokenPid);
        row.arg_a = pack_pid_pair(woken_pid, int32(kCpu));
        break;
      }
    }
    if (carries_string(type)) row.arg_c = out.intern(str);
    out.append(row);
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    char message[96];
    std::snprintf(message, sizeof message, "JSON parse error at offset %zu: %s",
                  pos_, what);
    throw std::runtime_error(message);
  }

  void skip_ws() {
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char next_char() {
    if (pos_ >= line_.size()) fail("unexpected end of input");
    return line_[pos_++];
  }

  void scan_object() {
    skip_ws();
    if (pos_ >= line_.size() || line_[pos_] != '{') {
      // A syntax error is reported as parse_json words it; valid JSON that
      // is not an object is a type error.
      parse_json(line_);
      throw std::logic_error("JSONL line is not an object");
    }
    ++pos_;
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == '}') {
      ++pos_;
    } else {
      Field next = kTime;  // the key to_jsonl writes next, tried first
      while (true) {
        skip_ws();
        if (next_char() != '"') fail("expected string");
        Field f = next;
        if (f == kFieldCount || !take_key(f)) {
          Slot key;
          scan_string(key);
          f = field_of(view(key));
          skip_ws();
          if (next_char() != ':') fail("expected ':'");
        }
        // A repeated or unknown key scans into the spare last slot.
        const std::uint32_t bit = 1u << f;
        Slot& slot = slots_[(present_ & bit) != 0 ? kFieldCount : f];
        present_ |= bit;
        scan_value(slot);
        next = kNextField[f];
        if (f == kType && slot.kind == Slot::Text) {
          next = key_after_type(view(slot));
        }
        skip_ws();
        const char c = next_char();
        if (c == '}') break;
        if (c != ',') fail("expected ',' or '}'");
      }
    }
    skip_ws();
    if (pos_ != line_.size()) fail("trailing garbage");
  }

  void scan_value(Slot& slot) {
    skip_ws();
    if (pos_ >= line_.size()) fail("unexpected end of input");
    switch (line_[pos_]) {
      case '"':
        ++pos_;
        scan_string(slot);
        return;
      case '{':
      case '[':
        parse_json_prefix(line_, pos_);
        slot.kind = Slot::Other;
        return;
      case 't':
        scan_word("true");
        slot.kind = Slot::Bool;
        slot.boolean = true;
        return;
      case 'f':
        scan_word("false");
        slot.kind = Slot::Bool;
        slot.boolean = false;
        return;
      case 'n':
        scan_word("null");
        slot.kind = Slot::Other;
        return;
      default:
        scan_number(slot);
    }
  }

  // pos_ is just past a key's opening quote. Consumes the rest of the key,
  // its closing quote and the colon, if they are `f`'s name as to_jsonl
  // writes it; a scan of the key would read the same field.
  bool take_key(Field f) {
    const std::string_view name = kFieldNames[f];
    if (line_.size() - pos_ < name.size() + 2 ||
        line_.compare(pos_, name.size(), name) != 0 ||
        line_[pos_ + name.size()] != '"' ||
        line_[pos_ + name.size() + 1] != ':') {
      return false;
    }
    pos_ += name.size() + 2;
    return true;
  }

  void scan_word(std::string_view word) {
    if (line_.substr(pos_, word.size()) != word) fail("expected keyword");
    pos_ += word.size();
  }

  // pos_ is just past the opening quote.
  void scan_string(Slot& slot) {
    const std::size_t begin = pos_;
    while (pos_ < line_.size() && line_[pos_] != '"' && line_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ == line_.size()) fail("unexpected end of input");
    if (line_[pos_] == '"') {
      slot.kind = Slot::Text;
      slot.begin = begin;
      slot.size = pos_ - begin;
      ++pos_;
      return;
    }
    // An escape: the JSON parser decodes or rejects the string.
    pos_ = begin - 1;
    slot.kind = Slot::EscapedText;
    slot.begin = pos_;
    parse_json_prefix(line_, pos_);
  }

  // A byte the JSON parser takes into a number after its digits.
  static bool continues_number(char c) {
    return c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+';
  }

  // Takes the same token as the JSON parser. -?digits with at most 18
  // digits cannot overflow int64, so it is read in the loop that finds its
  // end; the rest of [+-]?digits is read by from_chars, which agrees with
  // the parser's strtoll. Every other token, and an integer beyond int64,
  // goes to strtod as it does there.
  void scan_number(Slot& slot) {
    const std::size_t start = pos_;
    if (line_[pos_] == '-' || line_[pos_] == '+') ++pos_;
    const std::size_t first_digit = pos_;
    std::uint64_t magnitude = 0;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') {
      magnitude =
          magnitude * 10 + static_cast<std::uint64_t>(line_[pos_] - '0');
      ++pos_;
    }
    const std::size_t digits = pos_ - first_digit;
    if (digits >= 1 && digits <= 18 && line_[start] != '+' &&
        (pos_ == line_.size() || !continues_number(line_[pos_]))) {
      const auto value = static_cast<std::int64_t>(magnitude);
      slot.kind = Slot::Int;
      slot.integer = line_[start] == '-' ? -value : value;
      return;
    }
    bool digits_only = true;
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (continues_number(c)) {
        digits_only = false;
      } else if (c < '0' || c > '9') {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    if (digits_only) {
      const char* first = line_.data() + start + (line_[start] == '+' ? 1 : 0);
      const char* last = line_.data() + pos_;
      const auto [end, ec] = std::from_chars(first, last, slot.integer);
      if (ec == std::errc{} && end == last) {
        slot.kind = Slot::Int;
        return;
      }
    }
    const std::optional<double> real =
        strtod_whole(line_.substr(start, pos_ - start));
    if (!real) fail("malformed number");
    slot.kind = Slot::Double;
    slot.real = *real;
  }

  static std::optional<double> strtod_whole(std::string_view token) {
    const std::string copy(token);
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return std::nullopt;
    return value;
  }

  // The string in `slot`. An escaped string is decoded into a per-thread
  // buffer, so its view lasts only until the next escaped string is read.
  std::string_view view(const Slot& slot) const {
    if (slot.kind == Slot::Text) return line_.substr(slot.begin, slot.size);
    thread_local std::string decoded;
    std::size_t pos = slot.begin;
    decoded = parse_json_prefix(line_, pos).as_string();
    return decoded;
  }

  // Throws Error(before + field name + after), built in a local buffer so
  // that unwinding has nothing to destroy.
  template <typename Error>
  [[noreturn]] static void field_error(const char* before, Field f,
                                       const char* after) {
    char message[80];
    std::snprintf(message, sizeof message, "%s%s%s", before,
                  kFieldNames[f].data(), after);
    throw Error(message);
  }

  const Slot& get(Field f) const {
    if ((present_ & (1u << f)) == 0) {
      field_error<std::out_of_range>("JSONL: missing key ", f, "");
    }
    return slots_[f];
  }

  std::int64_t integer(Field f) const {
    const Slot& slot = get(f);
    if (slot.kind == Slot::Int) return slot.integer;
    if (slot.kind != Slot::Double) {
      field_error<std::logic_error>("JSONL: ", f, " is not a number");
    }
    return JsonValue::make_double(slot.real).as_int();
  }

  // Pids, CPUs and priorities are 32-bit; a wider value is rejected, not
  // truncated.
  std::int32_t int32(Field f) const {
    const std::int64_t v = integer(f);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      char message[96];
      std::snprintf(message, sizeof message,
                    "bad %s: %lld (outside the 32-bit range)",
                    kFieldNames[f].data(), static_cast<long long>(v));
      throw std::invalid_argument(message);
    }
    return static_cast<std::int32_t>(v);
  }

  bool boolean(Field f) const {
    const Slot& slot = get(f);
    if (slot.kind != Slot::Bool) {
      field_error<std::logic_error>("JSONL: ", f, " is not a bool");
    }
    return slot.boolean;
  }

  std::string_view text(Field f) const {
    const Slot& slot = get(f);
    if (slot.kind != Slot::Text && slot.kind != Slot::EscapedText) {
      field_error<std::logic_error>("JSONL: ", f, " is not a string");
    }
    return view(slot);
  }

  std::string_view line_;
  std::size_t pos_ = 0;
  std::uint32_t present_ = 0;  // bit f set once slots_[f] holds a value
  Slot slots_[kFieldCount + 1];
};

// The number of lines in `text`, counting a last line that lacks its
// '\n'. find is memchr, where std::count over chars is not vectorized.
std::size_t line_count(std::string_view text) {
  std::size_t lines = 0;
  for (std::size_t end = text.find('\n'); end != std::string_view::npos;
       end = text.find('\n', end + 1)) {
    ++lines;
  }
  return lines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

// Calls `fn` on every non-empty line, without its terminator.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    // Tolerate CRLF (and lone-CR-before-LF) line endings from traces that
    // passed through Windows tooling.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) fn(line);
    start = end + 1;
  }
}

}  // namespace

std::string to_jsonl(const TraceEvent& e) {
  JsonWriter w;
  w.begin_object();
  write_common(w, e);
  switch (e.type) {
    case EventType::RmwCreateNode:
      w.kv("node", e.as<NodeInfo>().node_name);
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      w.kv("kind", to_string(e.as<CallbackPhaseInfo>().kind));
      break;
    case EventType::TimerCall:
      w.kv("cb", static_cast<std::uint64_t>(e.as<TimerCallInfo>().callback_id));
      break;
    case EventType::Take: {
      const auto& info = e.as<TakeInfo>();
      w.kv("take_kind", static_cast<std::int64_t>(info.kind));
      w.kv("cb", static_cast<std::uint64_t>(info.callback_id));
      w.kv("topic", info.topic);
      w.kv("src_ts", info.src_ts.count_ns());
      break;
    }
    case EventType::TakeTypeErased:
      w.kv("dispatch", e.as<TakeTypeErasedInfo>().will_dispatch);
      break;
    case EventType::SyncOperator:
      w.kv("cb", static_cast<std::uint64_t>(e.as<SyncOperatorInfo>().callback_id));
      break;
    case EventType::DdsWrite: {
      const auto& info = e.as<DdsWriteInfo>();
      w.kv("topic", info.topic);
      w.kv("src_ts", info.src_ts.count_ns());
      break;
    }
    case EventType::SchedSwitch: {
      const auto& info = e.as<SchedSwitchInfo>();
      w.kv("cpu", static_cast<std::int64_t>(info.cpu));
      w.kv("prev_pid", static_cast<std::int64_t>(info.prev_pid));
      w.kv("prev_prio", static_cast<std::int64_t>(info.prev_prio));
      w.kv("prev_state", std::string(1, static_cast<char>(info.prev_state)));
      w.kv("next_pid", static_cast<std::int64_t>(info.next_pid));
      w.kv("next_prio", static_cast<std::int64_t>(info.next_prio));
      break;
    }
    case EventType::SchedWakeup: {
      const auto& info = e.as<SchedWakeupInfo>();
      w.kv("woken_pid", static_cast<std::int64_t>(info.woken_pid));
      w.kv("cpu", static_cast<std::int64_t>(info.target_cpu));
      break;
    }
  }
  w.end_object();
  return w.str();
}

TraceEvent from_jsonl(std::string_view line) {
  EventColumns columns;
  LineDecoder(line).decode(columns);
  return materialize_event(columns.view(), 0);
}

std::string to_jsonl(const EventVector& events) {
  std::string out;
  for (const auto& e : events) {
    out += to_jsonl(e);
    out += '\n';
  }
  return out;
}

EventColumns columns_from_jsonl(std::string_view text,
                                JsonlParseStats* lenient) {
  EventColumns out;
  // Room for one event per line, so a decoded segment is held at exact size.
  out.reserve(line_count(text));
  std::size_t malformed = 0;
  for_each_line(text, [&](std::string_view line) {
    try {
      LineDecoder(line).decode(out);
    } catch (const std::exception&) {
      if (lenient == nullptr) throw;
      ++malformed;
    }
  });
  JsonlMetrics::get().bytes.add(text.size());
  JsonlMetrics::get().events.add(out.size());
  JsonlMetrics::get().malformed.add(malformed);
  if (lenient != nullptr) lenient->malformed_skipped = malformed;
  return out;
}

EventVector events_from_jsonl(std::string_view text) {
  return materialize(columns_from_jsonl(text).view());
}

void write_jsonl_file(const std::string& path, const EventVector& events) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  f << to_jsonl(events);
  if (!f) throw std::runtime_error("write failed: " + path);
}

EventVector read_jsonl_file(const std::string& path) {
  std::string text;
  FileInput(path).read_rest(text);
  return events_from_jsonl(text);
}

std::size_t binary_footprint_bytes(const EventVector& events) {
  std::size_t total = 0;
  for (const auto& e : events) total += approximate_record_size(e);
  return total;
}

}  // namespace tetra::trace
