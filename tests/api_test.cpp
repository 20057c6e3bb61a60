// The session-based streaming synthesis API: lifecycle, the structured
// error model, and the core streaming guarantee — splitting any trace
// into K segments and ingesting them in shuffled order yields a model
// identical to whole-trace synthesis (property-tested across scenario
// generator seeds plus the seed7 golden trace), while per-trace worker
// pools and re-synthesis of dirty traces leave results unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/model_synthesis.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "telemetry/metrics.hpp"
#include "trace/serialize.hpp"

namespace tetra::api {
namespace {

// -- model comparison -------------------------------------------------------

void expect_same_dag(const core::Dag& a, const core::Dag& b,
                     const std::string& what) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count()) << what;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << what;
  for (const auto& vertex : a.vertices()) {
    const core::DagVertex* other = b.find_vertex(vertex.key);
    ASSERT_NE(other, nullptr) << what << ": missing vertex " << vertex.key;
    EXPECT_EQ(vertex.kind, other->kind) << what << ": " << vertex.key;
    EXPECT_EQ(vertex.in_topic, other->in_topic) << what << ": " << vertex.key;
    EXPECT_EQ(vertex.out_topics, other->out_topics)
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.instance_count, other->instance_count)
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.is_and_junction, other->is_and_junction)
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.is_or_junction, other->is_or_junction)
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.stats.count(), other->stats.count())
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.mbcet().count_ns(), other->mbcet().count_ns())
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.macet().count_ns(), other->macet().count_ns())
        << what << ": " << vertex.key;
    EXPECT_EQ(vertex.mwcet().count_ns(), other->mwcet().count_ns())
        << what << ": " << vertex.key;
  }
  auto edges_a = a.edges();
  auto edges_b = b.edges();
  std::sort(edges_a.begin(), edges_a.end());
  std::sort(edges_b.begin(), edges_b.end());
  EXPECT_EQ(edges_a, edges_b) << what;
}

// -- segmentation helpers ---------------------------------------------------

/// Splits into ~k contiguous chunks without ever separating events that
/// share a timestamp (cross-segment ties would make the shuffled k-way
/// merge order legitimately ambiguous).
std::vector<trace::EventVector> split_segments(const trace::EventVector& events,
                                               std::size_t k) {
  std::vector<trace::EventVector> out;
  const std::size_t target = std::max<std::size_t>(1, events.size() / k);
  std::size_t i = 0;
  while (i < events.size()) {
    std::size_t end = std::min(events.size(), i + target);
    while (end < events.size() && events[end].time == events[end - 1].time) {
      ++end;
    }
    out.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(i),
                     events.begin() + static_cast<std::ptrdiff_t>(end));
    i = end;
  }
  return out;
}

core::TimingModel synthesize_whole(const trace::EventVector& events) {
  SynthesisSession session;
  session.ingest(events);
  return session.model().value();
}

core::TimingModel synthesize_segmented(const trace::EventVector& events,
                                       std::size_t k, std::uint64_t shuffle_seed) {
  std::vector<trace::EventVector> segments = split_segments(events, k);
  std::mt19937_64 rng(shuffle_seed);
  std::shuffle(segments.begin(), segments.end(), rng);
  SynthesisSession session;
  for (auto& segment : segments) {
    session.ingest(std::move(segment), {.trace_id = "t", .mode = ""});
  }
  return session.model().value();
}

trace::EventVector scenario_trace(std::uint64_t seed) {
  const scenario::Scenario scen = scenario::ScenarioGenerator().generate(seed);
  return scenario::ScenarioRunner().run(scen.spec).trace;
}

// -- lifecycle & error model ------------------------------------------------

TEST(SynthesisSessionTest, EmptySessionReportsTypedError) {
  SynthesisSession session;
  const Result<core::TimingModel> result = session.model();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::EmptySession);
  EXPECT_THROW(result.value(), std::logic_error);
}

TEST(SynthesisSessionTest, UnknownTraceAndMissingFileErrors) {
  SynthesisSession session;
  EXPECT_EQ(session.trace_model("nope").error().code, ErrorCode::UnknownTrace);
  EXPECT_EQ(session.merged_events("nope").error().code,
            ErrorCode::UnknownTrace);
  const auto io = session.ingest_file("/nonexistent/trace.jsonl");
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.error().code, ErrorCode::Io);
  EXPECT_EQ(io.error().context, "/nonexistent/trace.jsonl");
}

// -- malformed JSONL ingestion ----------------------------------------------

/// A trace file in the test temp dir, removed when the guard leaves scope
/// (on an ASSERT exit too).
struct TempTrace {
  TempTrace(const std::string& name, const std::string& content)
      : path(::testing::TempDir() + name) {
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    f << content;
  }
  ~TempTrace() { std::remove(path.c_str()); }
  TempTrace(const TempTrace&) = delete;
  TempTrace& operator=(const TempTrace&) = delete;
  const std::string path;
};

constexpr const char* kValidLine =
    R"({"t":1000,"pid":1004,"probe":"P5","type":"cb_start","kind":"subscriber"})";

/// Ingesting the file must fail with a typed Io error naming the path,
/// and leave the session empty (the bad segment is rejected whole).
void expect_io_rejection(const std::string& name, const std::string& content) {
  SynthesisSession session;
  const TempTrace trace(name, content);
  const std::string& path = trace.path;
  const auto result = session.ingest_file(path);
  ASSERT_FALSE(result.ok()) << name;
  EXPECT_EQ(result.error().code, ErrorCode::Io) << name;
  EXPECT_EQ(result.error().context, path) << name;
  EXPECT_EQ(session.event_count(), 0u) << name;
  EXPECT_EQ(session.segment_count(), 0u) << name;
}

TEST(MalformedIngestionTest, TruncatedLineIsTypedIoError) {
  expect_io_rejection(
      "truncated.jsonl",
      std::string(kValidLine) + "\n" +
          R"({"t":2000,"pid":1004,"probe":"P5","ty)" + "\n");
}

TEST(MalformedIngestionTest, NanTimestampIsTypedIoError) {
  // NaN is not valid JSON; the parser must reject the literal instead of
  // smuggling a NaN into the timestamp field.
  expect_io_rejection(
      "nan_ts.jsonl",
      R"({"t":NaN,"pid":1004,"probe":"P5","type":"cb_start","kind":"timer"})"
      "\n");
}

TEST(MalformedIngestionTest, InfiniteTimestampIsTypedIoError) {
  // 1e999 parses as a double that overflows to infinity; converting it to
  // an int64 timestamp must be a typed error, not an undefined cast.
  expect_io_rejection(
      "inf_ts.jsonl",
      R"({"t":1e999,"pid":1004,"probe":"P5","type":"cb_start","kind":"timer"})"
      "\n");
}

TEST(MalformedIngestionTest, OverflowIntegerTimestampIsTypedIoError) {
  // Past int64 range the parser falls back to double; the value is then
  // not representable as a timestamp.
  expect_io_rejection(
      "overflow_ts.jsonl",
      R"({"t":99999999999999999999999999999999999999,"pid":1004,)"
      R"("probe":"P5","type":"cb_start","kind":"timer"})"
      "\n");
}

TEST(MalformedIngestionTest, WrongTypeTimestampIsTypedIoError) {
  expect_io_rejection(
      "string_ts.jsonl",
      R"({"t":"soon","pid":1004,"probe":"P5","type":"cb_start","kind":"timer"})"
      "\n");
}

TEST(MalformedIngestionTest, DuplicateEventLinesDoNotCrash) {
  // A recorder hiccup that repeats event lines (same ids and timestamps)
  // must flow through ingestion and synthesis without crashing: either a
  // model comes back or a typed error does.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const trace::EventVector original = trace::read_jsonl_file(fixture);
  trace::EventVector doubled = original;
  doubled.insert(doubled.end(), original.begin(), original.end());

  SynthesisSession session;
  const auto segment = session.ingest(std::move(doubled));
  ASSERT_TRUE(segment.ok()) << segment.error().to_string();
  EXPECT_EQ(segment->event_count, 2 * original.size());
  EXPECT_FALSE(segment->arrived_sorted);

  const auto model = session.model();
  if (model.ok()) {
    EXPECT_GT(model->dag.vertex_count(), 0u);
  } else {
    EXPECT_NE(model.error().code, ErrorCode::None);
  }
}

TEST(SynthesisSessionTest, AutoTraceIdsNeverCollideWithExplicitIds) {
  SynthesisSession session;
  const trace::EventVector events = scenario_trace(2);
  ASSERT_TRUE(session.ingest(events, {.trace_id = "trace-0", .mode = ""}).ok());
  const auto info = session.ingest(events);  // auto-named: must be fresh
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->trace_id, "trace-0");
  EXPECT_EQ(session.trace_count(), 2u);
}

TEST(SynthesisSessionTest, ConflictingModeTagsAreRejected) {
  SynthesisSession session;
  const trace::EventVector events = scenario_trace(3);
  ASSERT_TRUE(session.ingest(events, {.trace_id = "r", .mode = "city"}).ok());
  const auto conflict =
      session.ingest(events, {.trace_id = "r", .mode = "highway"});
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.error().code, ErrorCode::InvalidArgument);
}

TEST(SynthesisSessionTest, IngestRecordsSegmentDiagnostics) {
  SynthesisSession session;
  trace::EventVector events = scenario_trace(4);
  std::reverse(events.begin(), events.end());  // force re-sorting
  const auto info = session.ingest(events, {.trace_id = "run-a", .mode = ""});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->trace_id, "run-a");
  EXPECT_EQ(info->event_count, events.size());
  EXPECT_FALSE(info->arrived_sorted);
  EXPECT_EQ(session.segment_count(), 1u);
  EXPECT_EQ(session.trace_count(), 1u);
  EXPECT_EQ(session.event_count(), events.size());
  session.clear();
  EXPECT_EQ(session.segment_count(), 0u);
  EXPECT_EQ(session.model().error().code, ErrorCode::EmptySession);
}

TEST(SynthesisSessionTest, ReleaseEventsKeepsModelAndSealsTrace) {
  SynthesisSession session;
  const trace::EventVector events = scenario_trace(5);
  session.ingest(events, {.trace_id = "r", .mode = ""});
  const core::TimingModel before = session.trace_model("r").value();
  const auto freed = session.release_events("r");
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(*freed, events.size());
  // Cached model still served; events gone; re-ingest rejected.
  expect_same_dag(before.dag, session.trace_model("r").value().dag, "sealed");
  EXPECT_EQ(session.merged_events("r").error().code,
            ErrorCode::InvalidArgument);
  EXPECT_EQ(session.ingest(events, {.trace_id = "r", .mode = ""}).error().code,
            ErrorCode::InvalidArgument);
}

TEST(SynthesisSessionTest, ModeTaggedIngestKeepsRunsAndModes) {
  // Fig. 2's trace database is the session itself: runs are trace ids and
  // each carries its mode tag.
  const trace::EventVector city = scenario_trace(6);
  const trace::EventVector highway = scenario_trace(8);

  SynthesisSession session;
  const auto info = session.ingest(city, {.trace_id = "run-1", .mode = "city"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->trace_id, "run-1");
  EXPECT_EQ(info->mode, "city");
  ASSERT_TRUE(
      session.ingest(highway, {.trace_id = "run-2", .mode = "highway"}).ok());
  EXPECT_EQ(session.trace_ids(), (std::vector<std::string>{"run-1", "run-2"}));

  const core::MultiModeDag multi = session.multi_mode_model().value();
  const std::vector<std::string> modes = multi.modes();
  EXPECT_NE(std::find(modes.begin(), modes.end(), "city"), modes.end());
  EXPECT_NE(std::find(modes.begin(), modes.end(), "highway"), modes.end());
  expect_same_dag(*multi.mode_dag("city"), synthesize_whole(city).dag,
                  "city mode");
}

// -- re-synthesis of dirty traces -------------------------------------------

TEST(SynthesisSessionTest, IncrementalIngestMatchesFromScratch) {
  const trace::EventVector first = scenario_trace(10);
  const trace::EventVector second = scenario_trace(12);

  SynthesisSession incremental;
  incremental.ingest(first, {.trace_id = "a", .mode = ""});
  incremental.model().value();  // synthesize, cache
  incremental.ingest(second, {.trace_id = "b", .mode = ""});
  const core::TimingModel stepwise = incremental.model().value();

  SynthesisSession batch;
  batch.ingest(first, {.trace_id = "a", .mode = ""});
  batch.ingest(second, {.trace_id = "b", .mode = ""});
  expect_same_dag(stepwise.dag, batch.model().value().dag, "incremental");
}

TEST(SynthesisSessionTest, QueryResynthesizesOnlyDirtyTraces) {
  // A query synthesizes the traces ingested into since the last one and
  // serves every other trace from its cached model.
  const telemetry::Counter& rebuilds =
      telemetry::MetricsRegistry::global().counter("session.dirty_rebuilds");
  const telemetry::Counter& hits =
      telemetry::MetricsRegistry::global().counter("session.cache_hits");
  using Deltas = std::pair<std::uint64_t, std::uint64_t>;  // rebuilds, hits
  const auto query = [&](SynthesisSession& session) {
    const Deltas before{rebuilds.value(), hits.value()};
    EXPECT_TRUE(session.model().ok());
    return Deltas{rebuilds.value() - before.first,
                  hits.value() - before.second};
  };

  const trace::EventVector a = scenario_trace(14);
  const auto half = static_cast<std::ptrdiff_t>(a.size() / 2);
  SynthesisSession session;
  session.ingest(trace::EventVector(a.begin(), a.begin() + half),
                 {.trace_id = "a", .mode = ""});
  session.ingest(scenario_trace(15), {.trace_id = "b", .mode = ""});
  EXPECT_EQ(query(session), (Deltas{2, 0}));
  session.ingest(trace::EventVector(a.begin() + half, a.end()),
                 {.trace_id = "a", .mode = ""});
  EXPECT_EQ(query(session), (Deltas{1, 1}));
  EXPECT_EQ(query(session), (Deltas{0, 2}));
}

TEST(SynthesisSessionTest, WorkerPoolMatchesSequential) {
  SynthesisSession sequential(SynthesisConfig().threads(1));
  SynthesisSession pooled(SynthesisConfig().threads(4));
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const trace::EventVector events = scenario_trace(seed);
    const IngestOptions opts{.trace_id = "run-" + std::to_string(seed),
                             .mode = ""};
    sequential.ingest(events, opts);
    pooled.ingest(events, opts);
  }
  expect_same_dag(sequential.model().value().dag, pooled.model().value().dag,
                  "worker pool");
}

// -- segmented-ingestion equivalence property -------------------------------

TEST(SegmentedIngestionProperty, ShuffledSegmentsMatchWholeTrace) {
  // >= 20 generator seeds; K and the shuffle vary per seed.
  for (std::uint64_t seed = 1; seed <= 22; ++seed) {
    const trace::EventVector events = scenario_trace(seed);
    ASSERT_GT(events.size(), 100u) << "seed " << seed;
    const core::TimingModel whole = synthesize_whole(events);
    const std::size_t k = 2 + seed % 6;
    const core::TimingModel segmented =
        synthesize_segmented(events, k, 0xfeed + seed);
    expect_same_dag(whole.dag, segmented.dag,
                    "seed " + std::to_string(seed) + " k=" +
                        std::to_string(k));
  }
}

TEST(SegmentedIngestionProperty, GoldenTraceSurvivesSegmentation) {
  const std::string path =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const trace::EventVector events = trace::read_jsonl_file(path);
  ASSERT_GT(events.size(), 100u);
  const core::TimingModel whole = synthesize_whole(events);
  for (std::size_t k : {2, 5, 9}) {
    expect_same_dag(whole.dag, synthesize_segmented(events, k, 7 * k).dag,
                    "golden k=" + std::to_string(k));
  }
}

TEST(SegmentedIngestionProperty, SegmentedMergedEventsRoundTrip) {
  // The k-way merged stream the session serves back must equal the
  // original whole trace, independent of segment arrival order.
  const trace::EventVector events = scenario_trace(17);
  std::vector<trace::EventVector> segments = split_segments(events, 5);
  std::mt19937_64 rng(99);
  std::shuffle(segments.begin(), segments.end(), rng);
  SynthesisSession session;
  for (auto& segment : segments) {
    session.ingest(std::move(segment), {.trace_id = "t", .mode = ""});
  }
  EXPECT_EQ(session.merged_events("t").value(), events);
}

}  // namespace
}  // namespace tetra::api
