// Tests for the columnar event store and the .ttb binary trace format:
// per-type encode/decode identity, JSONL <-> ttb round trips, order
// preservation, corrupt-file rejection and the mmap reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/event_columns.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace tetra::trace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot open " << path;
  std::string out((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  return out;
}

/// One event of every EventType, with adversarial field values: negative
/// times, kInvalidPid, huge callback ids, empty and annotated strings.
EventVector one_of_each() {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{-5}, kInvalidPid, ""));
  ev.push_back(make_callback_start(TimePoint{0}, 1, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{1}, 1, ~CallbackId{0}));
  ev.push_back(make_take(TimePoint{2}, 2, TakeKind::Response, 0xdeadbeef,
                         "/svReply#anno", TimePoint{-1}));
  ev.push_back(make_take_type_erased(TimePoint{3}, 2, false));
  ev.push_back(make_sync_operator(TimePoint{4}, 2, 0x40));
  ev.push_back(make_callback_end(TimePoint{5}, 1, CallbackKind::Client));
  ev.push_back(make_dds_write(TimePoint{6}, 3, "/topic", TimePoint{6}));
  ev.push_back(make_sched_switch(
      TimePoint{7},
      SchedSwitchInfo{3, -1, 2147483647, ThreadRunState::DiskSleep,
                      kIdlePid, -2}));
  ev.push_back(make_sched_wakeup(TimePoint{8}, SchedWakeupInfo{42, 7}));
  return ev;
}

TEST(EventColumnsTest, EveryEventTypeRoundTripsThroughColumns) {
  const EventVector events = one_of_each();
  EventColumns columns;
  columns.append(events);
  ASSERT_EQ(columns.size(), events.size());
  const ColumnsView view = columns.view();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(materialize_event(view, i), events[i]) << "event " << i;
  }
  EXPECT_EQ(materialize(view), events);
}

TEST(EventColumnsTest, InternDeduplicatesStrings) {
  EventColumns columns;
  columns.append(make_dds_write(TimePoint{1}, 1, "/same", TimePoint{1}));
  columns.append(make_dds_write(TimePoint{2}, 2, "/same", TimePoint{2}));
  const ColumnsView view = columns.view();
  EXPECT_EQ(view.arg_c[0], view.arg_c[1]);
  // Index 0 is the empty string; "/same" interned exactly once after it.
  EXPECT_EQ(view.string_count, 2u);
}

TEST(EventColumnsTest, AppendViewReinterns) {
  EventColumns a;
  a.append(make_dds_write(TimePoint{1}, 1, "/x", TimePoint{1}));
  EventColumns b;
  b.append(make_node_event(TimePoint{0}, 9, "other"));
  b.append(a.view());  // "/x" gets a different index in b's table
  EXPECT_EQ(materialize(b.view())[1],
            make_dds_write(TimePoint{1}, 1, "/x", TimePoint{1}));
}

TEST(TtbTest, FileRoundTripsEveryEventType) {
  const EventVector events = one_of_each();
  const std::string path = temp_path("roundtrip.ttb");
  write_ttb_file(path, events);
  EXPECT_EQ(read_trace_file(path), events);  // sniffed as .ttb
  const TtbReader reader(path);
  ASSERT_EQ(reader.size(), events.size());
  EXPECT_EQ(reader.materialize(), events);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(reader.mapped());
#endif
}

TEST(TtbTest, PreservesUnsortedOrder) {
  // Conversion is not ingestion: an out-of-order capture must come back in
  // the exact order it was written, or JSONL identity breaks.
  EventVector events;
  events.push_back(make_dds_write(TimePoint{30}, 1, "/a", TimePoint{30}));
  events.push_back(make_dds_write(TimePoint{10}, 1, "/a", TimePoint{10}));
  events.push_back(make_dds_write(TimePoint{20}, 1, "/a", TimePoint{20}));
  const std::string path = temp_path("unsorted.ttb");
  write_ttb_file(path, events);
  EXPECT_EQ(TtbReader(path).materialize(), events);
}

TEST(TtbTest, JsonlToTtbToJsonlIsByteIdentical) {
  const std::string source =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const EventVector events = read_jsonl_file(source);
  ASSERT_GT(events.size(), 100u);
  const std::string ttb = temp_path("seed7.ttb");
  const std::string back = temp_path("seed7_back.jsonl");
  write_ttb_file(ttb, events);
  write_jsonl_file(back, TtbReader(ttb).materialize());
  EXPECT_EQ(read_file(back), read_file(source));
  // And the binary encoding actually is compact relative to the JSONL.
  EXPECT_LT(std::filesystem::file_size(ttb),
            std::filesystem::file_size(source));
}

TEST(TtbTest, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.ttb");
  write_ttb_file(path, EventVector{});
  const TtbReader reader(path);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_TRUE(reader.materialize().empty());
}

TEST(TtbTest, RejectsMissingAndForeignFiles) {
  EXPECT_THROW(TtbReader("/nonexistent/nope.ttb"), std::runtime_error);
  EXPECT_THROW(read_trace_file("/nonexistent/nope.ttb"), std::runtime_error);
  const std::string jsonl = temp_path("foreign.jsonl");
  const EventVector events{make_node_event(TimePoint{1}, 1, "n")};
  write_jsonl_file(jsonl, events);
  EXPECT_EQ(read_trace_file(jsonl), events);  // sniffed as JSONL
  EXPECT_THROW(TtbReader{jsonl}, std::runtime_error);
}

TEST(TtbTest, RejectsTruncatedFile) {
  const std::string path = temp_path("trunc.ttb");
  write_ttb_file(path, one_of_each());
  const std::string full = read_file(path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, kTtbHeaderSize - 1, kTtbHeaderSize,
        full.size() - 1}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(full.data(), static_cast<std::streamsize>(keep));
    f.close();
    EXPECT_THROW(TtbReader{path}, std::runtime_error) << "kept " << keep;
  }
}

TEST(TtbTest, RejectsBadVersionAndCorruptRows) {
  const std::string path = temp_path("corrupt.ttb");
  write_ttb_file(path, one_of_each());
  const std::string full = read_file(path);

  // Unknown future version.
  std::string bad = full;
  bad[8] = 99;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
  EXPECT_THROW(TtbReader{path}, std::runtime_error);

  // Patch the first row's type byte out of range: the type column starts
  // after header + 8B/4B columns (time, arg_a, arg_b: 8B; pid, arg_c: 4B;
  // probe: 1B), i.e. at header + count * (8*3 + 4*2 + 1).
  const std::size_t count = one_of_each().size();
  const std::size_t type_col = kTtbHeaderSize + count * (8 * 3 + 4 * 2 + 1);
  bad = full;
  bad[type_col] = 0x7f;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
  EXPECT_THROW(TtbReader{path}, std::runtime_error);
}

}  // namespace
}  // namespace tetra::trace
