// Unit tests for trace records: construction, serialization round-trips,
// buffers, merging, the trace database.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "support/json_parser.hpp"
#include "support/rng.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_buffer.hpp"

namespace tetra::trace {
namespace {

TraceEvent sample_take() {
  return make_take(TimePoint{123}, 1001, TakeKind::Request, 0xdeadbeef,
                   "/sv1Request", TimePoint{100});
}

TEST(ProbeIdTest, RoundTripsAllIds) {
  for (int i = 1; i <= 16; ++i) {
    const auto id = static_cast<ProbeId>(i);
    EXPECT_EQ(probe_id_from_string(std::string(to_string(id))), id);
  }
  EXPECT_EQ(probe_id_from_string("sched_switch"), ProbeId::SchedSwitch);
  EXPECT_EQ(probe_id_from_string("sched_wakeup"), ProbeId::SchedWakeup);
  for (const char* bad : {"P99", "P0", "P01", "P17", "p1", "P1x", "", "P",
                          "sched_swatch"}) {
    EXPECT_THROW(probe_id_from_string(bad), std::invalid_argument) << bad;
  }
}

TEST(EventTypeTest, RoundTripsAllTypes) {
  for (int i = 0; i <= static_cast<int>(EventType::SchedWakeup); ++i) {
    const auto type = static_cast<EventType>(i);
    EXPECT_EQ(event_type_from_string(std::string(to_string(type))), type);
  }
  for (const char* bad : {"cb_star", "sched_wakeuq", "take ", "", "?"}) {
    EXPECT_THROW(event_type_from_string(bad), std::invalid_argument) << bad;
  }
}

TEST(EventTest, ConstructorsSetProbeAndType) {
  const auto node = make_node_event(TimePoint{1}, 42, "n");
  EXPECT_EQ(node.probe, ProbeId::P1_RmwCreateNode);
  EXPECT_EQ(node.as<NodeInfo>().node_name, "n");

  const auto start = make_callback_start(TimePoint{2}, 42, CallbackKind::Service);
  EXPECT_EQ(start.probe, ProbeId::P9_ExecuteServiceEntry);
  const auto end = make_callback_end(TimePoint{3}, 42, CallbackKind::Service);
  EXPECT_EQ(end.probe, ProbeId::P11_ExecuteServiceExit);

  const auto take = sample_take();
  EXPECT_EQ(take.probe, ProbeId::P10_RmwTakeRequest);
  EXPECT_EQ(take.as<TakeInfo>().src_ts, TimePoint{100});
}

TEST(EventTest, PhaseProbeMapping) {
  for (CallbackKind kind :
       {CallbackKind::Timer, CallbackKind::Subscription, CallbackKind::Service,
        CallbackKind::Client}) {
    EXPECT_EQ(kind_for_phase_probe(start_probe_for(kind)), kind);
    EXPECT_EQ(kind_for_phase_probe(end_probe_for(kind)), kind);
  }
  EXPECT_THROW(kind_for_phase_probe(ProbeId::P16_DdsWriteImpl),
               std::invalid_argument);
}

TEST(EventTest, SortByTimeOrdersEvents) {
  EventVector events;
  events.push_back(make_dds_write(TimePoint{30}, 2, "/b", TimePoint{30}));
  events.push_back(make_dds_write(TimePoint{10}, 1, "/a", TimePoint{10}));
  events.push_back(make_dds_write(TimePoint{20}, 1, "/a", TimePoint{20}));
  sort_by_time(events);
  EXPECT_EQ(events[0].time, TimePoint{10});
}

TEST(EventTest, SortByTimeKeepsSortedInputAndMatchesStableSort) {
  // Runs of four equal timestamps: a stable sort keeps each run in the
  // order given, so sorted input must come back untouched.
  EventVector sorted;
  for (int i = 0; i < 200; ++i) {
    const TimePoint t{(i / 4) * 10};
    sorted.push_back(make_dds_write(t, i, "/t" + std::to_string(i % 7), t));
  }
  ASSERT_TRUE(is_time_sorted(sorted));
  EventVector same = sorted;
  sort_by_time(same);
  EXPECT_EQ(same, sorted);

  Rng rng(11);
  EventVector shuffled = sorted;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(shuffled[i], shuffled[j]);
  }
  ASSERT_FALSE(is_time_sorted(shuffled));
  EventVector expected = shuffled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  sort_by_time(shuffled);
  EXPECT_EQ(shuffled, expected);
}

TEST(SerializeTest, JsonlRoundTripsEveryEventType) {
  EventVector events;
  events.push_back(make_node_event(TimePoint{1}, 10, "node_a"));
  events.push_back(make_callback_start(TimePoint{2}, 10, CallbackKind::Timer));
  events.push_back(make_timer_call(TimePoint{3}, 10, 0xabc));
  events.push_back(sample_take());
  events.push_back(make_take_type_erased(TimePoint{5}, 10, true));
  events.push_back(make_sync_operator(TimePoint{6}, 10, 0xdef));
  events.push_back(make_callback_end(TimePoint{7}, 10, CallbackKind::Timer));
  events.push_back(make_dds_write(TimePoint{8}, 10, "/topic#anno", TimePoint{8}));
  events.push_back(make_sched_switch(
      TimePoint{9}, SchedSwitchInfo{2, 10, 5, ThreadRunState::Sleeping, 11, 0}));
  events.push_back(make_sched_wakeup(TimePoint{10}, SchedWakeupInfo{10, 3}));

  const auto restored = events_from_jsonl(to_jsonl(events));
  ASSERT_EQ(restored.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(restored[i], events[i]) << "event " << i;
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path = "/tmp/tetra_trace_test.jsonl";
  EventVector events{sample_take(), make_node_event(TimePoint{2}, 3, "x")};
  write_jsonl_file(path, events);
  const auto restored = read_jsonl_file(path);
  EXPECT_EQ(restored, events);
  std::filesystem::remove(path);
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(read_jsonl_file("/nonexistent/nope.jsonl"), std::runtime_error);
}

TEST(SerializeTest, ParsesCrlfLineEndings) {
  // Traces shuttled through Windows tooling or `git core.autocrlf` arrive
  // with \r\n terminators; the parser must not feed the \r into the JSON.
  EventVector events{sample_take(), make_node_event(TimePoint{2}, 3, "x")};
  std::string text = to_jsonl(events);
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(events_from_jsonl(crlf), events);
}

TEST(SerializeTest, ParsesMixedLineEndings) {
  // One producer per line: \n and \r\n may interleave in a concatenated
  // stream. A lone \r must survive inside string values, too.
  EventVector events;
  events.push_back(make_node_event(TimePoint{1}, 10, "node_a"));
  events.push_back(make_dds_write(TimePoint{2}, 10, "/t", TimePoint{2}));
  events.push_back(sample_take());
  const std::string lines = to_jsonl(events);
  const std::size_t first_break = lines.find('\n');
  std::string mixed = lines.substr(0, first_break) + "\r\n" +
                      lines.substr(first_break + 1);
  EXPECT_EQ(events_from_jsonl(mixed), events);

  // Blank lines, a line of only \r, a last line without \n, text of only
  // newlines, empty text, and a malformed line for the lenient decoder: the
  // rows must be the non-empty lines decoded one by one.
  const std::string a = to_jsonl(events[0]), b = to_jsonl(events[1]);
  const std::string documents[] = {
      a + "\n\n" + b + "\n\n",
      a + "\n\r\n" + b + "\r\n",
      a + "\n" + b,
      a + "\r\n" + b + "\r",
      "\n\n\n",
      "\r\n",
      "\r",
      "",
      a + "\n{\"t\":1}\n\n" + b,
      "{\n" + b + "\r\n\r",
  };
  for (const std::string& text : documents) {
    EventVector expected;
    std::size_t malformed = 0;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      try {
        expected.push_back(from_jsonl(line));
      } catch (const std::exception&) {
        ++malformed;
      }
    }
    JsonlParseStats stats;
    EXPECT_EQ(materialize(columns_from_jsonl(text, &stats).view()), expected)
        << "text: " << text;
    EXPECT_EQ(stats.malformed_skipped, malformed) << "text: " << text;
    if (malformed == 0) {
      EXPECT_EQ(events_from_jsonl(text), expected) << "text: " << text;
    } else {
      EXPECT_ANY_THROW(events_from_jsonl(text)) << "text: " << text;
    }
  }
}

TEST(SerializeTest, RejectsOutOfRangeTakeKind) {
  const std::string line = to_jsonl(EventVector{sample_take()});
  std::string bad = line;
  const std::size_t pos = bad.find("\"take_kind\":1");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 13, "\"take_kind\":7");
  EXPECT_THROW(events_from_jsonl(bad), std::invalid_argument);
}

// Replaces the value of `key` in a line to_jsonl wrote.
std::string with_field(std::string line, std::string_view key,
                       std::string_view value) {
  const std::string quoted = "\"" + std::string(key) + "\":";
  const std::size_t begin = line.find(quoted);
  EXPECT_NE(begin, std::string::npos) << key;
  if (begin == std::string::npos) return line;
  const std::size_t from = begin + quoted.size();
  const std::size_t to = line.find_first_of(",}", from);
  return line.replace(from, to - from, value);
}

TEST(SerializeTest, RejectsOutOfRangeThirtyTwoBitFields) {
  // Pids, CPUs and priorities are 32-bit: 2^32 + 1 must not decode as 1.
  const std::string sw = to_jsonl(make_sched_switch(
      TimePoint{9},
      SchedSwitchInfo{2, 10, 5, ThreadRunState::Sleeping, 11, 0}));
  const std::string wake =
      to_jsonl(make_sched_wakeup(TimePoint{10}, SchedWakeupInfo{10, 3}));
  const std::pair<const std::string*, const char*> fields[] = {
      {&sw, "pid"},      {&sw, "cpu"},      {&sw, "prev_pid"},
      {&sw, "prev_prio"}, {&sw, "next_pid"}, {&sw, "next_prio"},
      {&wake, "woken_pid"}, {&wake, "cpu"}};
  for (const auto& [line, key] : fields) {
    for (const char* value : {"4294967297", "2147483648", "-2147483649"}) {
      try {
        (void)from_jsonl(with_field(*line, key, value));
        ADD_FAILURE() << key << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW(from_jsonl(with_field(*line, key, "2147483647")));
    EXPECT_NO_THROW(from_jsonl(with_field(*line, key, "-2147483648")));
  }
}

TEST(SerializeTest, RejectsMalformedPrevState) {
  const TraceEvent sw = make_sched_switch(
      TimePoint{9}, SchedSwitchInfo{2, 10, 5, ThreadRunState::Sleeping, 11, 0});
  const std::string line = to_jsonl(EventVector{sw});
  for (const std::string bad_state : {"Z", "", "RS"}) {
    std::string bad = line;
    const std::size_t pos = bad.find("\"prev_state\":\"S\"");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 16, "\"prev_state\":\"" + bad_state + "\"");
    EXPECT_THROW(events_from_jsonl(bad), std::invalid_argument)
        << "prev_state '" << bad_state << "' must be rejected";
  }
}

// ---- from_jsonl against the JSON object model -----------------------------

std::int32_t reference_int32(const JsonValue& j, const std::string& key) {
  const std::int64_t v = j.at(key).as_int();
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("bad " + key + ": " + std::to_string(v));
  }
  return static_cast<std::int32_t>(v);
}

// The decoder from_jsonl replaced: parse the line into a JsonValue, then
// look each field up. It defines what from_jsonl must accept and reject.
TraceEvent reference_from_jsonl(std::string_view line) {
  const JsonValue j = parse_json(line);
  TraceEvent e;
  e.time = TimePoint{j.at("t").as_int()};
  e.pid = reference_int32(j, "pid");
  e.probe = probe_id_from_string(j.at("probe").as_string());
  e.type = event_type_from_string(j.at("type").as_string());
  switch (e.type) {
    case EventType::RmwCreateNode:
      e.payload = NodeInfo{j.at("node").as_string()};
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd: {
      const std::string& kind = j.at("kind").as_string();
      CallbackKind k;
      if (kind == "timer") k = CallbackKind::Timer;
      else if (kind == "subscriber") k = CallbackKind::Subscription;
      else if (kind == "service") k = CallbackKind::Service;
      else if (kind == "client") k = CallbackKind::Client;
      else throw std::runtime_error("bad callback kind: " + kind);
      e.payload = CallbackPhaseInfo{k};
      break;
    }
    case EventType::TimerCall:
      e.payload = TimerCallInfo{static_cast<CallbackId>(j.at("cb").as_int())};
      break;
    case EventType::Take: {
      TakeInfo info;
      info.kind = take_kind_from_int(j.at("take_kind").as_int());
      info.callback_id = static_cast<CallbackId>(j.at("cb").as_int());
      info.topic = j.at("topic").as_string();
      info.src_ts = TimePoint{j.at("src_ts").as_int()};
      e.payload = std::move(info);
      break;
    }
    case EventType::TakeTypeErased:
      e.payload = TakeTypeErasedInfo{j.at("dispatch").as_bool()};
      break;
    case EventType::SyncOperator:
      e.payload =
          SyncOperatorInfo{static_cast<CallbackId>(j.at("cb").as_int())};
      break;
    case EventType::DdsWrite:
      e.payload = DdsWriteInfo{j.at("topic").as_string(),
                               TimePoint{j.at("src_ts").as_int()}};
      break;
    case EventType::SchedSwitch: {
      SchedSwitchInfo info;
      info.cpu = reference_int32(j, "cpu");
      info.prev_pid = reference_int32(j, "prev_pid");
      info.prev_prio = reference_int32(j, "prev_prio");
      const std::string& st = j.at("prev_state").as_string();
      if (st.size() != 1) throw std::invalid_argument("bad prev_state: " + st);
      info.prev_state = thread_run_state_from_char(st[0]);
      info.next_pid = reference_int32(j, "next_pid");
      info.next_prio = reference_int32(j, "next_prio");
      e.payload = info;
      break;
    }
    case EventType::SchedWakeup: {
      SchedWakeupInfo info;
      info.woken_pid = reference_int32(j, "woken_pid");
      info.target_cpu = reference_int32(j, "cpu");
      e.payload = info;
      break;
    }
  }
  return e;
}

// What a decoder made of one line: the event, or the kind of exception.
struct Outcome {
  std::optional<TraceEvent> event;
  std::string_view error;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  if (!o.event) return os << "throws " << o.error;
  return os << to_jsonl(*o.event);
}

template <typename Decode>
Outcome outcome_of(Decode decode, std::string_view line) {
  try {
    return {decode(line), ""};
  } catch (const std::invalid_argument&) {
    return {std::nullopt, "invalid_argument"};
  } catch (const std::out_of_range&) {
    return {std::nullopt, "out_of_range"};
  } catch (const std::logic_error&) {
    return {std::nullopt, "logic_error"};
  } catch (const std::runtime_error&) {
    return {std::nullopt, "runtime_error"};
  }
}

// Decodes `line` both ways, expects the same outcome, and returns it.
Outcome expect_same_outcome(std::string_view line) {
  const Outcome expected = outcome_of(reference_from_jsonl, line);
  const Outcome actual = outcome_of(from_jsonl, line);
  EXPECT_EQ(actual, expected) << "line: " << line;
  return actual;
}

TEST(SerializeTest, DecodesHandWrittenLinesLikeTheObjectModel) {
  const std::string take = to_jsonl(sample_take());
  const auto timed = [](std::int64_t t) {
    TraceEvent e = sample_take();
    e.time = TimePoint{t};
    return e;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const TraceEvent escaped_take =
      make_take(TimePoint{123}, 1001, TakeKind::Request, 0xdeadbeef,
                "/sv1\nRequest\"", TimePoint{100});
  const std::string after_t = take.substr(take.find("\"pid\""));
  const std::string after_pid = take.substr(take.find("\"probe\""));
  // Escapes are built from a lone backslash, so no editor decodes them:
  // the `i` of "pid" and the key "t" (both keys the decoder predicts), the
  // digits of "P10", an escaped '/' in the topic and the `a` of "take".
  const std::string bs(1, '\\');
  const std::string escaped_keys =
      "{\"" + bs + "u0074\":123,\"p" + bs + "u0069d\":1001," + after_pid;
  const std::string escaped_values = with_field(
      with_field(take, "probe", "\"P" + bs + "u0031" + bs + "u0030\""),
      "topic", "\"" + bs + "/sv1Request\"");
  const std::string escaped_type =
      with_field(take, "type", "\"t" + bs + "u0061ke\"");
  for (const std::string* line :
       {&escaped_keys, &escaped_values, &escaped_type}) {
    ASSERT_NE(line->find('\\'), std::string::npos) << *line;
  }
  // Each line with the event it must decode to, or nullopt if it must throw.
  std::vector<std::pair<std::string, std::optional<TraceEvent>>> cases = {
      {take, sample_take()},
      // Any key order and any JSON whitespace.
      {R"({"src_ts":100,"topic":"/sv1Request","cb":3735928559,"take_kind":1,)"
       R"("type":"take","probe":"P10","pid":1001,"t":123})",
       sample_take()},
      {" \t{ \"t\" :\t123 ,\r\"pid\":1001,\"probe\" : \"P10\","
       "\"type\":\"take\",\"take_kind\":1,\"cb\":3735928559,"
       "\"topic\":\"/sv1Request\",\"src_ts\":100 } \r\t",
       sample_take()},
      // Escapes in keys and in values.
      {escaped_keys, sample_take()},
      {escaped_values, sample_take()},
      {escaped_type, sample_take()},
      {with_field(take, "topic", R"("/sv1\nRequest\"")"), escaped_take},
      {with_field(take, "topic", R"("/sv1Request\u")"), std::nullopt},
      {with_field(take, "topic", R"("/sv1Request\q")"), std::nullopt},
      // Duplicate keys keep the first value; later ones must still parse.
      {R"({"t":5,"t":7,)" + take.substr(1), timed(5)},
      {R"({"t":5,"t":"late",)" + take.substr(1), timed(5)},
      {R"({"t":5,"t":1.2.3,)" + take.substr(1), std::nullopt},
      // Unknown keys are ignored whatever they hold, if it is valid JSON.
      {R"({"x":{"a":[1,2,{"b":null}],"c":"é"},"y":true,"z":-1.5e+3,)" +
           take.substr(1),
       sample_take()},
      {R"({"x":[1,)" + take.substr(1), std::nullopt},
      {R"({"x":nul,)" + take.substr(1), std::nullopt},
      // Keys where the decoder predicts another: a longer or shorter name,
      // whitespace before the colon, an unknown key, a repeat.
      {R"({"t":123,"pidx":7,)" + after_t, sample_take()},
      {R"({"t":123,"pidx":1001,)" + after_pid, std::nullopt},
      {R"({"t":123,"pi":1001,)" + after_pid, std::nullopt},
      {R"({"t":123,"pid::":1001,)" + after_pid, std::nullopt},
      {R"({"t":123,"pi)", std::nullopt},
      {R"({"t":123,"pid")", std::nullopt},
      {R"({"t":123,"pid" :1001,)" + after_pid, sample_take()},
      {"{\"t\":123,\"pid\"\t\r\n:\t1001 ," + after_pid, sample_take()},
      {R"({"t":123,"x":{"pid":5},)" + after_t, sample_take()},
      {R"({"t":123,"pid":1001,"pid":5,)" + after_pid, sample_take()},
      {R"({"pid":1001,"t":123,"pid":5,)" + after_pid, sample_take()},
      {R"({"pid":1001,"t":123,"pid":"x",)" + after_pid, sample_take()},
      {R"({"t":123,"pid":1001,"type":"take","probe":"P10",)" +
           take.substr(take.find("\"take_kind\"")),
       sample_take()},
      {with_field(take, "type", R"("sched_wakeup")"), std::nullopt},
      // Numbers: a sign, exponents and fractions truncate like the parser.
      {with_field(take, "t", "+5"), timed(5)},
      {with_field(take, "t", "1e3"), timed(1000)},
      {with_field(take, "t", "5.9"), timed(5)},
      {with_field(take, "t", "0.5e1"), timed(5)},
      {with_field(take, "t", "-0"), timed(0)},
      {with_field(take, "t", "1e-999"), timed(0)},
      {with_field(take, "t", "5." + std::string(80, '0') + "1"), timed(5)},
      {with_field(take, "t", "-"), std::nullopt},
      {with_field(take, "t", "+"), std::nullopt},
      {with_field(take, "t", "+-5"), std::nullopt},
      {with_field(take, "t", "1-2"), std::nullopt},
      {with_field(take, "t", "1e"), std::nullopt},
      {with_field(take, "t", "0x10"), std::nullopt},
      {with_field(take, "t", "1e999"), std::nullopt},
      {with_field(take, "t", "1e19"), std::nullopt},
      // The int64 edges. Below the minimum, strtod rounds to -2^63.
      {with_field(take, "t", "9223372036854775807"), timed(kMax)},
      {with_field(take, "t", "9223372036854775808"), std::nullopt},
      {with_field(take, "t", "-9223372036854775808"), timed(kMin)},
      {with_field(take, "t", "-9223372036854775809"), timed(kMin)},
      {with_field(take, "t", "-9223372036854776832"), timed(kMin)},
      {with_field(take, "t", "-9223372036854776833"), std::nullopt},
      // Wrong JSON types and missing keys.
      {with_field(take, "t", R"("123")"), std::nullopt},
      {with_field(take, "topic", "7"), std::nullopt},
      {with_field(take, "cb", "true"), std::nullopt},
      {with_field(take, "cb", "{}"), std::nullopt},
      {R"({"t":123,"pid":1001,"probe":"P10","type":"take"})", std::nullopt},
      // Trailing commas and garbage; lines that are not objects.
      {take.substr(0, take.size() - 1) + ",}", std::nullopt},
      {take + ",", std::nullopt},
      {take + "}", std::nullopt},
      {take + " x", std::nullopt},
      {take.substr(0, take.size() - 1), std::nullopt},
      {"{}", std::nullopt},
      {"{", std::nullopt},
      {"[]", std::nullopt},
      {"[1,2]", std::nullopt},
      {"5", std::nullopt},
      {R"("take")", std::nullopt},
      {"null", std::nullopt},
      {"", std::nullopt},
      {" \t", std::nullopt},
  };
  // Integers in predicted slots besides "t": up to 18 digits are read while
  // the token's end is found, longer runs and other tokens as before.
  const std::string sw = to_jsonl(make_sched_switch(
      TimePoint{9},
      SchedSwitchInfo{2, 10, 5, ThreadRunState::Sleeping, 11, 0}));
  const std::pair<std::string, std::optional<std::int64_t>> integers[] = {
      {"999999999999999999", 999'999'999'999'999'999},
      {"-999999999999999999", -999'999'999'999'999'999},
      {"1000000000000000000", 1'000'000'000'000'000'000},
      {"-9223372036854775807", -kMax},
      {"10000000000000000000", std::nullopt},
      {"-10000000000000000000", std::nullopt},
      {"007", 7},
      {"-0", 0},
      {"5-3", std::nullopt},
      {"1e3", 1000},
  };
  const auto take_with = [](Pid pid, std::int64_t src_ts) {
    return make_take(TimePoint{123}, pid, TakeKind::Request, 0xdeadbeef,
                     "/sv1Request", TimePoint{src_ts});
  };
  const auto switch_with = [](Pid prev_pid) {
    TraceEvent e = make_sched_switch(
        TimePoint{9},
        SchedSwitchInfo{2, prev_pid, 5, ThreadRunState::Sleeping, 11, 0});
    e.pid = 10;  // the line keeps its own pid
    return e;
  };
  const auto event_if = [](bool accepted, const TraceEvent& e) {
    return accepted ? std::optional(e) : std::nullopt;
  };
  for (const auto& [token, value] : integers) {
    const bool fits_int32 =
        value && *value >= std::numeric_limits<std::int32_t>::min() &&
        *value <= std::numeric_limits<std::int32_t>::max();
    const auto pid = static_cast<Pid>(value.value_or(0));
    cases.push_back({with_field(take, "pid", token),
                     event_if(fits_int32, take_with(pid, 100))});
    cases.push_back({with_field(take, "src_ts", token),
                     event_if(value.has_value(),
                              take_with(1001, value.value_or(0)))});
    cases.push_back({with_field(sw, "prev_pid", token),
                     event_if(fits_int32, switch_with(pid))});
  }
  for (const auto& [line, event] : cases) {
    EXPECT_EQ(expect_same_outcome(line).event, event) << "line: " << line;
  }
}

// The lenient document decoder on one line: a rejected line must add no
// row and intern no string; an accepted one must decode to `expected`.
void expect_lenient_columns_agree(const std::string& line,
                                  const Outcome& expected) {
  JsonlParseStats stats;
  const EventColumns columns = columns_from_jsonl(line, &stats);
  const ColumnsView view = columns.view();
  if (!expected.event) {
    EXPECT_EQ(view.count, 0u) << "line: " << line;
    EXPECT_EQ(view.string_count, 1u) << "line: " << line;
    EXPECT_EQ(view.blob_size, 0u) << "line: " << line;
    return;
  }
  EXPECT_EQ(stats.malformed_skipped, 0u) << "line: " << line;
  ASSERT_EQ(view.count, 1u) << "line: " << line;
  EXPECT_EQ(materialize_event(view, 0), *expected.event) << "line: " << line;
}

TEST(SerializeTest, DecodesMutatedGoldenLinesLikeTheObjectModel) {
  // Every line of every golden trace, mutated seven ways by a fixed seed:
  // substitution from a JSON-flavoured alphabet, insertion, deletion and
  // truncation, each alone, then the first three followed by one more
  // mutation of a random kind. The lenient columns_from_jsonl is checked
  // against the same reference outcome.
  static constexpr std::string_view kAlphabet =
      "{}[]\":,\\ \t\r-+.eE0123456789tfnulrsaPx_\x80";
  Rng rng(20240612);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  const auto mutate = [&](std::string& line, std::size_t op) {
    const char byte = kAlphabet[pick(kAlphabet.size())];
    switch (op) {
      case 0:
        if (!line.empty()) line[pick(line.size())] = byte;
        break;
      case 1:
        line.insert(pick(line.size() + 1), 1, byte);
        break;
      case 2:
        if (!line.empty()) line.erase(pick(line.size()), 1);
        break;
      default:
        line.resize(pick(line.size() + 1));
    }
  };

  std::vector<std::filesystem::path> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(TETRA_TEST_DATA_DIR)) {
    if (entry.path().extension() == ".jsonl") goldens.push_back(entry.path());
  }
  std::sort(goldens.begin(), goldens.end());
  ASSERT_FALSE(goldens.empty());

  std::size_t cases = 0, decoded = 0, mismatches = 0;
  for (const auto& path : goldens) {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      for (std::size_t variant = 0; variant < 7; ++variant) {
        std::string mutated = line;
        mutate(mutated, variant % 4);
        if (variant >= 4) mutate(mutated, pick(4));
        const Outcome expected = outcome_of(reference_from_jsonl, mutated);
        const Outcome actual = outcome_of(from_jsonl, mutated);
        expect_lenient_columns_agree(mutated, expected);
        ++cases;
        if (actual.event) ++decoded;
        if (!(actual == expected) && ++mismatches <= 10) {
          ADD_FAILURE() << "line: " << mutated << "\n  from_jsonl: " << actual
                        << "\n  reference:  " << expected;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(cases, 50000u);
  // Both outcomes must be well represented, or the comparison proves little.
  EXPECT_GT(decoded, cases / 50);
  EXPECT_LT(decoded, cases - cases / 50);
}

TEST(SerializeTest, FootprintCountsCompactBytes) {
  EventVector events{sample_take()};
  const std::size_t bytes = binary_footprint_bytes(events);
  EXPECT_GT(bytes, 14u);
  EXPECT_LT(bytes, 200u);
}

TEST(TraceBufferTest, DropsWhenFull) {
  TraceBuffer buffer(2);
  EXPECT_TRUE(buffer.push(sample_take()));
  EXPECT_TRUE(buffer.push(sample_take()));
  EXPECT_FALSE(buffer.push(sample_take()));
  EXPECT_EQ(buffer.dropped(), 1u);
  EXPECT_TRUE(buffer.full());
  const auto drained = buffer.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.push(sample_take()));
}

TEST(TraceBufferTest, ClearResetsDropCounter) {
  TraceBuffer buffer(1);
  EXPECT_TRUE(buffer.push(sample_take()));
  EXPECT_FALSE(buffer.push(sample_take()));
  EXPECT_EQ(buffer.dropped(), 1u);
  buffer.clear();
  // A cleared buffer starts a fresh accounting period: stale drop counts
  // must not leak into the next capture window.
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.push(sample_take()));
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(MergeTest, MergeSortedInterleaves) {
  EventVector a{make_dds_write(TimePoint{10}, 1, "/a", TimePoint{10}),
                make_dds_write(TimePoint{30}, 1, "/a", TimePoint{30})};
  EventVector b{make_dds_write(TimePoint{20}, 2, "/b", TimePoint{20})};
  const auto merged = merge_sorted({a, b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].time, TimePoint{10});
  EXPECT_EQ(merged[1].time, TimePoint{20});
  EXPECT_EQ(merged[2].time, TimePoint{30});
}

TEST(MergeTest, MergeSortedTieKeepsSourceOrder) {
  EventVector a{make_dds_write(TimePoint{10}, 1, "/a", TimePoint{10})};
  EventVector b{make_dds_write(TimePoint{10}, 2, "/b", TimePoint{10})};
  const auto merged = merge_sorted({a, b});
  EXPECT_EQ(merged[0].pid, 1);
  EXPECT_EQ(merged[1].pid, 2);
}

}  // namespace
}  // namespace tetra::trace
