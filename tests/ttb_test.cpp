// Tests for the columnar event store and the .ttb binary trace format:
// per-type encode/decode identity, JSONL <-> ttb round trips, order
// preservation, corrupt-file rejection (hand-made and seeded mutations)
// and the mmap reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "trace/event_columns.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace tetra::trace {
namespace {

/// A path in the test temp dir whose file is removed when the guard leaves
/// scope (on an ASSERT exit too).
struct TempFile {
  explicit TempFile(const std::string& name)
      : path((std::filesystem::path(::testing::TempDir()) / name).string()) {}
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string path;
};

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

TEST(EventColumnsTest, AppendViewInternsInFirstUseOrder) {
  // The source table lists "/b" before "/a", and "unused" appears in no
  // row of the slice appended: the destination table must read as if the
  // rows had been appended one by one.
  EventColumns source;
  source.append(make_dds_write(TimePoint{0}, 1, "unused", TimePoint{0}));
  source.append(make_dds_write(TimePoint{1}, 1, "/b", TimePoint{1}));
  source.append(make_dds_write(TimePoint{2}, 1, "/a", TimePoint{2}));
  source.append(make_dds_write(TimePoint{3}, 1, "/a", TimePoint{3}));
  const ColumnsView slice = source.view().rows(2, 2);
  EventColumns bulk;
  bulk.append(make_dds_write(TimePoint{0}, 2, "/b", TimePoint{0}));
  bulk.append(slice);
  EventColumns one_by_one;
  one_by_one.append(make_dds_write(TimePoint{0}, 2, "/b", TimePoint{0}));
  for (const TraceEvent& e : materialize(slice)) one_by_one.append(e);
  EXPECT_EQ(materialize(bulk.view()), materialize(one_by_one.view()));
  const ColumnsView a = bulk.view(), b = one_by_one.view();
  ASSERT_EQ(a.string_count, 3u);
  EXPECT_EQ(std::string(a.blob, a.blob_size), std::string(b.blob, b.blob_size));
  EXPECT_EQ(a.arg_c[1], a.arg_c[2]);
}

TEST(EventColumnsTest, AppendViewRejectsBadStringIndex) {
  EventColumns source;
  source.append(make_dds_write(TimePoint{1}, 1, "/x", TimePoint{1}));
  ColumnsView view = source.view();
  const std::uint32_t bad = 7;
  view.arg_c = &bad;
  EventColumns sink;
  EXPECT_THROW(sink.append(view), std::invalid_argument);
}

TEST(EventColumnsTest, ShiftMovesTimesAndSourceTimestamps) {
  const EventVector events = one_of_each();
  EventColumns columns(events);
  columns.shift(Duration::ns(1000));
  const EventVector shifted = materialize(columns.view());
  ASSERT_EQ(shifted.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    TraceEvent expected = events[i];
    expected.time += Duration::ns(1000);
    if (auto* take = std::get_if<TakeInfo>(&expected.payload)) {
      take->src_ts += Duration::ns(1000);
    } else if (auto* write = std::get_if<DdsWriteInfo>(&expected.payload)) {
      write->src_ts += Duration::ns(1000);
    }
    EXPECT_EQ(shifted[i], expected) << "event " << i;
  }
}

TEST(EventColumnsTest, SortByTimeMatchesPackingStableSortedEvents) {
  // Runs of equal timestamps and a dozen topics: the sorted columns must
  // equal the stably sorted events packed one by one, string table
  // included, and sorted columns must come back untouched.
  // (std::string(...).append(...), not "n" + std::to_string(i): g++ 12's
  // libstdc++ raises a false -Wrestrict on the latter at -O2.)
  EventVector events;
  for (int i = 0; i < 120; ++i) {
    const TimePoint t{(i / 3) * 10};
    const std::string topic = std::string("/t").append(std::to_string(i % 12));
    events.push_back(make_dds_write(t, i, topic, t));
    if (i % 5 == 0) {
      const std::string node = std::string("n").append(std::to_string(i));
      events.push_back(make_node_event(t, i, node));
    }
  }
  Rng rng(5);
  for (std::size_t i = events.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(events[i], events[j]);
  }
  EventColumns columns(events);
  EXPECT_FALSE(sort_by_time(columns));
  EventVector sorted = events;
  sort_by_time(sorted);
  const EventColumns packed(sorted);
  const ColumnsView a = columns.view(), b = packed.view();
  EXPECT_EQ(materialize(a), sorted);
  ASSERT_EQ(a.string_count, b.string_count);
  EXPECT_EQ(std::string(a.blob, a.blob_size), std::string(b.blob, b.blob_size));
  EXPECT_TRUE(std::equal(a.arg_c, a.arg_c + a.count, b.arg_c));

  const std::string blob(a.blob, a.blob_size);
  EXPECT_TRUE(sort_by_time(columns));
  EXPECT_EQ(materialize(columns.view()), sorted);
  EXPECT_EQ(std::string(columns.view().blob, columns.view().blob_size), blob);
}

TEST(EventColumnsTest, AppendRowsGathersInTheGivenOrder) {
  const EventVector events = one_of_each();
  const EventColumns source(events);
  const std::vector<std::size_t> rows = {7, 0, 3, 7};
  EventColumns gathered;
  gathered.append(source.view(), rows);
  EventColumns one_by_one;
  for (const std::size_t i : rows) one_by_one.append(events[i]);
  EXPECT_EQ(materialize(gathered.view()), materialize(one_by_one.view()));
  const ColumnsView a = gathered.view(), b = one_by_one.view();
  EXPECT_EQ(std::string(a.blob, a.blob_size), std::string(b.blob, b.blob_size));
}

TEST(EventColumnsTest, EraseFrontKeepsTheTableWhileRowsOutnumberIt) {
  EventColumns columns;
  for (int i = 0; i < 8; ++i) {
    columns.append(make_dds_write(TimePoint{i}, i, i < 2 ? "/old" : "/new",
                                  TimePoint{i}));
  }
  const EventVector rest = materialize(columns.view().rows(2, 6));
  columns.erase_front(2);  // 6 rows left, 3 strings ("", "/old", "/new")
  EXPECT_EQ(materialize(columns.view()), rest);
  EXPECT_EQ(columns.view().string_count, 3u);
  EXPECT_EQ(columns.lookup("/old"), 1u);

  // A stream of ever-new names: the table is rebuilt from the rows left.
  EventColumns names;
  for (int i = 0; i < 8; ++i) {
    names.append(make_node_event(TimePoint{i}, i,
                                 std::string("n").append(std::to_string(i))));
  }
  const EventVector tail = materialize(names.view().rows(6, 2));
  names.erase_front(6);
  EXPECT_EQ(materialize(names.view()), tail);
  const ColumnsView view = names.view();
  EXPECT_EQ(view.string_count, 3u);  // "", "n6", "n7"
  EXPECT_EQ(std::string(view.blob, view.blob_size), "n6n7");
}

TEST(TtbTest, ReadTraceFileKeepsACanonicalTable) {
  // A file EventColumns wrote reads back with the same string table and
  // the same string indices, so .ttb -> .ttb conversion is an identity.
  EventColumns written;
  written.append(one_of_each());
  const TempFile file("canonical.ttb");
  const std::string& path = file.path;
  write_ttb_file(path, written);
  const EventColumns read = read_trace_file(path);
  const ColumnsView a = written.view(), b = read.view();
  ASSERT_EQ(b.count, a.count);
  ASSERT_EQ(b.string_count, a.string_count);
  EXPECT_TRUE(std::equal(a.arg_c, a.arg_c + a.count, b.arg_c));
  EXPECT_EQ(std::string(b.blob, b.blob_size), std::string(a.blob, a.blob_size));
}

TEST(TtbTest, FileRoundTripsEveryEventType) {
  const EventVector events = one_of_each();
  const TempFile file("roundtrip.ttb");
  const std::string& path = file.path;
  write_ttb_file(path, events);
  EXPECT_EQ(materialize(read_trace_file(path).view()), events);  // as .ttb
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
  const TempFile file("unsorted.ttb");
  const std::string& path = file.path;
  write_ttb_file(path, events);
  EXPECT_EQ(TtbReader(path).materialize(), events);
}

TEST(TtbTest, JsonlToTtbToJsonlIsByteIdentical) {
  const std::string source =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const EventVector events = read_jsonl_file(source);
  ASSERT_GT(events.size(), 100u);
  const TempFile ttb_file("seed7.ttb");
  const std::string& ttb = ttb_file.path;
  const TempFile back_file("seed7_back.jsonl");
  const std::string& back = back_file.path;
  write_ttb_file(ttb, events);
  write_jsonl_file(back, TtbReader(ttb).materialize());
  EXPECT_EQ(read_file(back), read_file(source));
  // And the binary encoding actually is compact relative to the JSONL.
  EXPECT_LT(std::filesystem::file_size(ttb),
            std::filesystem::file_size(source));
}

TEST(TtbTest, EmptyTraceRoundTrips) {
  const TempFile file("empty.ttb");
  const std::string& path = file.path;
  write_ttb_file(path, EventVector{});
  const TtbReader reader(path);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_TRUE(reader.materialize().empty());
}

TEST(TtbTest, RejectsMissingAndForeignFiles) {
  EXPECT_THROW(TtbReader("/nonexistent/nope.ttb"), std::runtime_error);
  EXPECT_THROW(read_trace_file("/nonexistent/nope.ttb"), std::runtime_error);
  const TempFile jsonl_file("foreign.jsonl");
  const std::string& jsonl = jsonl_file.path;
  const EventVector events{make_node_event(TimePoint{1}, 1, "n")};
  write_jsonl_file(jsonl, events);
  EXPECT_EQ(materialize(read_trace_file(jsonl).view()), events);  // JSONL
  EXPECT_THROW(TtbReader{jsonl}, std::runtime_error);
}

TEST(TtbTest, RejectsTruncatedFile) {
  const TempFile file("trunc.ttb");
  const std::string& path = file.path;
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
  const TempFile file("corrupt.ttb");
  const std::string& path = file.path;
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

TEST(TtbTest, MutatedFilesReadAsValidColumnsOrThrow) {
  // Every golden JSONL file, converted to .ttb, then damaged with a fixed
  // seed: byte flips, truncations and splices, each in the header and in
  // the body. (The conversion is lenient, so the verdict golden, whose
  // lines are not trace events, becomes an empty trace: a header and a
  // string table to damage.) A damaged file either reads into columns
  // that validate, materialize and re-intern like any other, or is
  // rejected with a std::runtime_error — never another exception, a crash
  // or a sanitizer report.
  Rng rng(20241017);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  std::vector<std::filesystem::path> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(TETRA_TEST_DATA_DIR)) {
    if (entry.path().extension() == ".jsonl") goldens.push_back(entry.path());
  }
  std::sort(goldens.begin(), goldens.end());
  ASSERT_FALSE(goldens.empty());

  const TempFile file("mutated.ttb");
  const std::string& path = file.path;
  std::size_t accepted = 0, rejected = 0;
  for (const auto& golden : goldens) {
    JsonlParseStats lenient;
    write_ttb_file(path,
                   columns_from_jsonl(read_file(golden.string()), &lenient));
    const std::string image = read_file(path);
    ASSERT_GT(image.size(), kTtbHeaderSize);
    const std::size_t body = image.size() - kTtbHeaderSize;
    for (std::size_t variant = 0; variant < 120; ++variant) {
      // Even variants damage the header, odd ones the body.
      const bool in_header = variant % 2 == 0;
      const std::size_t at = in_header ? pick(kTtbHeaderSize)
                                       : kTtbHeaderSize + pick(body);
      std::string bad = image;
      switch (variant / 2 % 3) {
        case 0:  // flip one byte
          bad[at] = static_cast<char>(bad[at] ^ (1 + pick(255)));
          break;
        case 1:  // truncate
          bad.resize(at);
          break;
        default:  // splice in 1-16 bytes copied from elsewhere in the file
          bad.insert(at, image, pick(image.size() - 16), 1 + pick(16));
      }
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
      try {
        const EventColumns columns = read_trace_file(path);
        ++accepted;
        EXPECT_NO_THROW(validate_columns(columns.view())) << variant;
        const EventVector events = materialize(columns.view());
        EventColumns reinterned;
        reinterned.append(columns.view());
        EXPECT_EQ(materialize(reinterned.view()), events) << variant;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Both outcomes must be well represented, or the matrix proves little.
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 20u);
}

}  // namespace
}  // namespace tetra::trace
