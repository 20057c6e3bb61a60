// Tests for the fleet-scale ingest path: a trace ingested in segments, in
// any order and with queries in between, must synthesize byte-identically
// to one pass over the whole trace across many generated scenarios and
// arbitrary segmentations, and the ingest service must produce the model a
// session fed the same submissions builds, whatever its worker count. The
// reference is the core free-function pipeline over a one-pass index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/ingest_service.hpp"
#include "api/session.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"
#include "core/model_synthesis.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "trace/serialize.hpp"

namespace tetra {
namespace {

trace::EventVector scenario_trace(std::uint64_t seed) {
  const scenario::Scenario scen = scenario::ScenarioGenerator().generate(seed);
  return scenario::ScenarioRunner().run(scen.spec).trace;
}

std::string model_json(const core::TimingModel& model) {
  return core::to_json(model.dag);
}

/// Full synthesis from the core functions alone: one index over the whole
/// trace, Alg. 1 per node, worker merging, labels, the DAG.
core::Dag reference_dag(const trace::EventVector& events) {
  const core::TraceIndex index(events);
  std::vector<core::CallbackList> lists = core::extract_all_nodes(index);
  core::merge_worker_lists(lists);
  core::normalize_labels(lists);
  return core::build_dag(lists, core::DagOptions{});
}

/// Splits `events` into `parts` contiguous chunks at pseudo-random cut
/// points (deterministic in `seed`). Each chunk inherits sortedness.
std::vector<trace::EventVector> random_cuts(const trace::EventVector& events,
                                            std::size_t parts,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> cuts{0, events.size()};
  std::uniform_int_distribution<std::size_t> dist(0, events.size());
  for (std::size_t i = 1; i < parts; ++i) cuts.push_back(dist(rng));
  std::sort(cuts.begin(), cuts.end());
  std::vector<trace::EventVector> segments;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    segments.emplace_back(events.begin() + cuts[i],
                          events.begin() + cuts[i + 1]);
  }
  return segments;
}

TEST(IncrementalTest, MatchesFullSynthesisAcrossSeeds) {
  // The acceptance bar: over >= 20 generator seeds, a session that ingests
  // the trace in random segments (each query appends the queued segments
  // to the trace's index and synthesizes it) produces a model
  // byte-identical to one full-synthesis pass.
  for (std::uint64_t seed = 1; seed <= 22; ++seed) {
    const trace::EventVector events = scenario_trace(seed);
    const std::string expected = core::to_json(reference_dag(events));

    api::SynthesisSession inc;
    for (auto& segment : random_cuts(events, 4, seed * 7919)) {
      ASSERT_TRUE(
          inc.ingest(std::move(segment), {.trace_id = "t", .mode = ""}).ok());
      // Query mid-stream too: interleaved model() calls must not perturb
      // the final result (they index the trace a segment at a time).
      ASSERT_TRUE(inc.model().ok());
    }
    EXPECT_EQ(model_json(inc.model().value()), expected) << "seed " << seed;
  }
}

TEST(IncrementalTest, MatchesFullSynthesisOnPerPidPartition) {
  // Out-of-order arrival: segments partitioned by pid overlap completely in
  // time, so every append lands in the middle of the existing index.
  const trace::EventVector events = scenario_trace(3);
  const std::string expected = core::to_json(reference_dag(events));

  api::SynthesisSession inc;
  trace::EventVector odd, even;
  for (const auto& e : events) {
    (static_cast<std::uint32_t>(e.pid) % 2 == 0 ? even : odd).push_back(e);
  }
  ASSERT_TRUE(inc.ingest(std::move(even), {.trace_id = "t", .mode = ""}).ok());
  ASSERT_TRUE(inc.ingest(std::move(odd), {.trace_id = "t", .mode = ""}).ok());
  EXPECT_EQ(model_json(inc.model().value()), expected);
}

TEST(IncrementalTest, LateRequestWriteResolvesTheCaller) {
  // Node a's timer calls service /sv on node b; node c is unrelated. The
  // trace ends before any client takes the reply, so b's only read of
  // a's activity is FindCaller's (topic, src_ts) key. Holding back the
  // request write leaves that lookup unresolved ('?'); appending the
  // write alone must resolve it to a's timer.
  constexpr Pid kA = 1000, kB = 1001, kC = 1002;
  const trace::TraceEvent request =
      trace::make_dds_write(TimePoint{150}, kA, "/svRequest", TimePoint{150});
  const trace::EventVector early = {
      trace::make_node_event(TimePoint{0}, kA, "node_a"),
      trace::make_node_event(TimePoint{0}, kB, "node_b"),
      trace::make_node_event(TimePoint{0}, kC, "node_c"),
      trace::make_callback_start(TimePoint{100}, kA, CallbackKind::Timer),
      trace::make_timer_call(TimePoint{101}, kA, 0x10),
      trace::make_callback_end(TimePoint{200}, kA, CallbackKind::Timer),
      trace::make_callback_start(TimePoint{210}, kC, CallbackKind::Timer),
      trace::make_timer_call(TimePoint{211}, kC, 0x30),
      trace::make_callback_end(TimePoint{250}, kC, CallbackKind::Timer),
      trace::make_callback_start(TimePoint{300}, kB, CallbackKind::Service),
      trace::make_take(TimePoint{301}, kB, trace::TakeKind::Request, 0x20,
                       "/svRequest", TimePoint{150}),
      trace::make_dds_write(TimePoint{380}, kB, "/svReply", TimePoint{380}),
      trace::make_callback_end(TimePoint{400}, kB, CallbackKind::Service),
  };
  trace::EventVector events = early;
  events.push_back(request);
  trace::sort_by_time(events);

  core::TraceIndex index;
  index.append(early);
  const auto server_in_topic = [&index] {
    for (const core::CallbackList& list :
         core::synthesize(index).node_callbacks) {
      if (list.pid == kB) return list.records.at(0).in_topic;
    }
    return std::string();
  };
  EXPECT_EQ(core::split_annotated_topic(server_in_topic()).second,
            core::kUnknownAnnotation);

  index.append(trace::EventVector{request});
  EXPECT_EQ(core::split_annotated_topic(server_in_topic()).second,
            "node_a/T1");
  EXPECT_EQ(model_json(core::synthesize(index)),
            core::to_json(reference_dag(events)));
}

TEST(IncrementalTest, LateSchedSwitchesRemeasureTheirThread) {
  // Node a's timer runs over [100, 400], node b's over [500, 600]. A late
  // segment of two sched_switch rows preempts a's thread over [200, 300]
  // in favour of a thread that is no node: Alg. 2 must charge a only for
  // the time its thread ran, and leave b as it was.
  constexpr Pid kA = 1000, kB = 1001, kOther = 3000;
  const trace::EventVector early = {
      trace::make_node_event(TimePoint{0}, kA, "node_a"),
      trace::make_node_event(TimePoint{0}, kB, "node_b"),
      trace::make_callback_start(TimePoint{100}, kA, CallbackKind::Timer),
      trace::make_timer_call(TimePoint{101}, kA, 0x10),
      trace::make_callback_end(TimePoint{400}, kA, CallbackKind::Timer),
      trace::make_callback_start(TimePoint{500}, kB, CallbackKind::Timer),
      trace::make_timer_call(TimePoint{501}, kB, 0x20),
      trace::make_callback_end(TimePoint{600}, kB, CallbackKind::Timer),
  };
  const trace::EventVector switches = {
      trace::make_sched_switch(TimePoint{200},
                               {0, kA, 0, trace::ThreadRunState::Runnable,
                                kOther, 0}),
      trace::make_sched_switch(TimePoint{300},
                               {0, kOther, 0, trace::ThreadRunState::Sleeping,
                                kA, 0}),
  };
  trace::EventVector events = early;
  events.insert(events.end(), switches.begin(), switches.end());
  trace::sort_by_time(events);

  core::TraceIndex index;
  index.append(early);
  index.append(switches);
  const core::TimingModel model = core::synthesize(index);
  const auto exec_time_of = [&model](Pid pid) {
    for (const core::CallbackList& list : model.node_callbacks) {
      if (list.pid == pid) return list.records.at(0).exec_times.at(0);
    }
    return Duration::zero();
  };
  EXPECT_EQ(exec_time_of(kA), Duration::ns(200));
  EXPECT_EQ(exec_time_of(kB), Duration::ns(100));
  EXPECT_EQ(model_json(model), core::to_json(reference_dag(events)));
}

TEST(IncrementalTest, MergedEventsReproducesChronologicalStream) {
  // Whether segments arrive in order or newest first, the merged stream
  // is time-ordered with ties in ingestion order.
  const trace::EventVector events = scenario_trace(2);
  for (const bool newest_first : {false, true}) {
    std::vector<trace::EventVector> segments = random_cuts(events, 3, 99);
    if (newest_first) std::reverse(segments.begin(), segments.end());
    trace::EventVector expected;
    for (const auto& segment : segments) {
      expected.insert(expected.end(), segment.begin(), segment.end());
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const trace::TraceEvent& a,
                        const trace::TraceEvent& b) { return a.time < b.time; });
    api::SynthesisSession inc;
    for (auto& segment : segments) {
      ASSERT_TRUE(
          inc.ingest(std::move(segment), {.trace_id = "t", .mode = ""}).ok());
    }
    const auto merged = inc.merged_events("t");
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(trace::to_jsonl(merged.value()), trace::to_jsonl(expected))
        << (newest_first ? "newest first" : "in order");
  }
}

TEST(IncrementalTest, ShuffledFileIsSortedOnIngest) {
  // A file whose lines arrive out of time order is sorted stably on
  // ingest: flagged as re-sorted, and synthesized like the file holding
  // the same lines in that sorted order.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  trace::EventVector events = trace::read_jsonl_file(fixture);
  std::shuffle(events.begin(), events.end(), std::mt19937_64(7));
  const std::string shuffled = ::testing::TempDir() + "shuffled.jsonl";
  const std::string sorted = ::testing::TempDir() + "sorted.jsonl";
  trace::write_jsonl_file(shuffled, events);
  trace::sort_by_time(events);
  trace::write_jsonl_file(sorted, events);

  api::SynthesisSession from_shuffled;
  const auto info = from_shuffled.ingest_file(shuffled);
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_FALSE(info->arrived_sorted);
  EXPECT_EQ(info->event_count, events.size());
  api::SynthesisSession from_sorted;
  ASSERT_TRUE(from_sorted.ingest_file(sorted).ok());
  EXPECT_TRUE(from_sorted.segments().front().arrived_sorted);
  EXPECT_EQ(model_json(from_shuffled.model().value()),
            model_json(from_sorted.model().value()));
  EXPECT_EQ(from_shuffled.merged_events(shuffled).value(), events);
  std::remove(shuffled.c_str());
  std::remove(sorted.c_str());
}

TEST(IncrementalTest, QueryBetweenSegmentsKeepsIngestionOrder) {
  // Segments a0, b, a1 of one trace id arrive with a query after b: a0
  // and b are drained into the index, a1 is appended after them. The
  // model must equal the core pipeline over one index that appended a0,
  // b and a1 in that order, whose time ties between the interleaved
  // streams break by ingestion order.
  const trace::EventVector a = scenario_trace(6);
  const trace::EventVector b = scenario_trace(8);
  const std::size_t half = a.size() / 2;
  const trace::EventVector a0(a.begin(), a.begin() + half);
  const trace::EventVector a1(a.begin() + half, a.end());
  core::TraceIndex index;
  for (const trace::EventVector* segment : {&a0, &b, &a1}) {
    index.append(*segment);
  }
  std::vector<core::CallbackList> lists = core::extract_all_nodes(index);
  core::merge_worker_lists(lists);
  core::normalize_labels(lists);
  const std::string expected =
      core::to_json(core::build_dag(lists, core::DagOptions{}));

  api::SynthesisSession session;
  std::size_t ingested = 0;
  for (const trace::EventVector* segment : {&a0, &b, &a1}) {
    ASSERT_TRUE(session.ingest(*segment, {.trace_id = "t", .mode = ""}).ok());
    if (++ingested == 2) {
      ASSERT_TRUE(session.model().ok());
    }
  }
  EXPECT_EQ(model_json(session.model().value()), expected);
}

TEST(ShardedIngestTest, ModelIndependentOfShardCount) {
  // Four robots submitted out of id order, each as two segments (one of
  // them as JSONL text) interleaved across robots: whatever the worker
  // count, the service's model must be the one a session fed the same
  // (id, segment) sequence builds, whose trace order is first-ingest order.
  struct Segment {
    std::string id;
    trace::EventVector events;
    bool as_jsonl = false;
  };
  const std::vector<std::uint64_t> seeds{13, 10, 12, 11};
  std::vector<trace::EventVector> traces;
  for (const std::uint64_t seed : seeds) traces.push_back(scenario_trace(seed));
  std::vector<Segment> segments;
  for (int half = 0; half < 2; ++half) {
    for (std::size_t robot = 0; robot < seeds.size(); ++robot) {
      const trace::EventVector& events = traces[robot];
      const auto cut = events.begin() + events.size() / 2;
      Segment segment;
      segment.id = "robot-" + std::to_string(seeds[robot]);
      segment.events = half == 0 ? trace::EventVector(events.begin(), cut)
                                 : trace::EventVector(cut, events.end());
      segment.as_jsonl = (robot + half) % 2 == 0;
      segments.push_back(std::move(segment));
    }
  }
  api::SynthesisSession session;
  for (const Segment& s : segments) {
    ASSERT_TRUE(session.ingest(s.events, {.trace_id = s.id, .mode = ""}).ok());
  }
  const auto reference = session.model();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  const std::string expected = model_json(reference.value());
  // The session in turn merges the per-robot reference DAGs in
  // first-ingest order.
  core::Dag merged;
  for (const trace::EventVector& events : traces) {
    merged.merge(reference_dag(events));
  }
  EXPECT_EQ(core::to_json(merged), expected);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    api::IngestServiceConfig config;
    config.shards = shards;
    api::ShardedIngestService service(config);
    for (const Segment& segment : segments) {
      if (segment.as_jsonl) {
        service.submit_jsonl(segment.id, trace::to_jsonl(segment.events));
      } else {
        service.submit(segment.id, segment.events);
      }
    }
    const auto model = service.model();
    ASSERT_TRUE(model.ok()) << model.error().to_string();
    EXPECT_EQ(model_json(model.value()), expected)
        << shards << " workers diverged from the session";
  }
}

TEST(ShardedIngestTest, JsonlSubmissionMatchesParsedSubmission) {
  const trace::EventVector events = scenario_trace(6);
  api::ShardedIngestService a;
  a.submit("t", events);
  api::IngestServiceConfig config;
  config.shards = 2;
  api::ShardedIngestService b(config);
  b.submit_jsonl("t", trace::to_jsonl(events));
  const auto ma = a.model();
  const auto mb = b.model();
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(model_json(ma.value()), model_json(mb.value()));
  EXPECT_EQ(b.events_ingested(), events.size());
}

TEST(ShardedIngestTest, RoutesThousandsOfTraceIds) {
  api::IngestServiceConfig config;
  config.shards = 4;
  api::ShardedIngestService service(config);
  std::uint64_t total = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = "robot-" + std::to_string(i);
    trace::EventVector tiny;
    tiny.push_back(
        trace::make_node_event(TimePoint{0}, 1000 + i, "node"));
    tiny.push_back(trace::make_callback_start(TimePoint{10}, 1000 + i,
                                              CallbackKind::Timer));
    tiny.push_back(trace::make_timer_call(TimePoint{11}, 1000 + i, 1));
    tiny.push_back(trace::make_callback_end(TimePoint{20}, 1000 + i,
                                            CallbackKind::Timer));
    total += tiny.size();
    service.submit(id, std::move(tiny));
  }
  service.flush();
  EXPECT_EQ(service.events_ingested(), total);
  EXPECT_EQ(service.first_error().code, api::ErrorCode::None);
  EXPECT_TRUE(service.model().ok());
}

TEST(ShardedIngestTest, LatchesAndSurfacesParseErrors) {
  // The latched error is the first in submission order, whichever worker
  // finishes decoding first.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    api::IngestServiceConfig config;
    config.shards = shards;
    api::ShardedIngestService service(config);
    service.submit_jsonl("b", "{\"t\":0,\"pid\":1,\"probe\":\"P1\"");
    service.submit_jsonl("a", "{\"t\":0,\"pid\":2,\"probe\":");
    service.flush();
    EXPECT_NE(service.first_error().code, api::ErrorCode::None);
    const auto model = service.model();
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.error().context, "b") << shards << " workers";
  }
}

TEST(ShardedIngestTest, EmptyServiceReportsEmptySession) {
  api::ShardedIngestService service;
  const auto model = service.model();
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.error().code, api::ErrorCode::EmptySession);
}

}  // namespace
}  // namespace tetra
