// Model regression sentinel: labeled drift/no-drift validation harness.
//
// The headline suite sweeps seeds x mutation kinds of labeled pairs: for
// every seed, a baseline run of the generated scenario plus (a) a
// resampled run of the *identical* spec — a no-drift pair that must not
// alarm — and (b) one run per mutation kind of a single-axis mutant — a
// drift pair the sentinel must flag. The resulting confusion matrix is
// asserted: >= 95% detection, zero false alarms at the default alpha.
//
// Reprioritize mutants are exercised by the mutation property tests
// (scenario_test.cpp) but excluded here: without CPU contention a
// priority flip is unobservable in the trace, so it defines no detection
// ground truth.
//
// Golden fixtures (regenerate after an intentional pipeline change):
//   tetra_scenario --seed 7 --run-index 1 --quiet
//       --trace-out tests/data/sentinel_seed7_clean.jsonl
//   tetra_scenario --seed 7 --run-index 1 --mutate scale-exec-time --quiet
//       --trace-out tests/data/sentinel_seed7_drift.jsonl
//   tetra_sentinel --baseline tests/data/scenario_seed7_trace.jsonl
//       --window tests/data/sentinel_seed7_drift.jsonl --quiet
//       --json tests/data/sentinel_seed7_verdict.json
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sentinel/engine.hpp"
#include "sentinel/stream.hpp"
#include "trace/event_columns.hpp"
#include "trace/serialize.hpp"

namespace tetra::sentinel {
namespace {

std::string data_path(const std::string& name) {
  return std::string(TETRA_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// ---- unit behaviour ---------------------------------------------------------

TEST(SentinelTest, CheckBeforeBaselineIsInvalidArgument) {
  DriftEngine engine(SentinelConfig{});
  const auto analysis = engine.analyze(trace::EventVector{});
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.error().code, api::ErrorCode::InvalidArgument);
  EXPECT_EQ(engine.windows_analyzed(), 0u);
}

TEST(SentinelTest, AlphaOutsideUnitIntervalIsInvalidArgument) {
  // The per-window KS level must be a probability; the one-shot check and
  // the stream both refuse anything else before analyzing a window.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double alpha : {2.0, 1.0, 0.0, -0.5, nan}) {
    SentinelConfig config;
    config.alpha = alpha;
    DriftEngine engine(config);
    ASSERT_TRUE(
        engine.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
            .ok());
    const auto analysis =
        engine.analyze_file(data_path("sentinel_seed7_clean.jsonl"));
    ASSERT_FALSE(analysis.ok()) << "alpha " << alpha;
    EXPECT_EQ(analysis.error().code, api::ErrorCode::InvalidArgument);
    EXPECT_EQ(engine.windows_analyzed(), 0u);

    StreamSentinel stream(config);
    ASSERT_TRUE(
        stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
            .ok());
    const auto verdicts =
        stream.feed_file(data_path("sentinel_seed7_clean.jsonl"));
    ASSERT_FALSE(verdicts.ok()) << "alpha " << alpha;
    EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
    EXPECT_EQ(stream.windows_advanced(), 0u);
  }
}

TEST(SentinelTest, BaselineModelSynthesizesFromFixture) {
  DriftEngine engine(SentinelConfig{});
  ASSERT_TRUE(
      engine.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  const auto model = engine.baseline_model();
  ASSERT_TRUE(model.ok()) << model.error().to_string();
  EXPECT_GT(model->dag.vertex_count(), 0u);
  EXPECT_GT(model->dag.edge_count(), 0u);
}

TEST(SentinelTest, UnreadableBaselineFileIsIoError) {
  DriftEngine engine(SentinelConfig{});
  const auto segment =
      engine.ingest_baseline_file("/nonexistent/sentinel.jsonl");
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.error().code, api::ErrorCode::Io);
}

TEST(SentinelTest, VerdictJsonIsStableAndComplete) {
  DriftVerdict verdict;
  verdict.drifted = true;
  verdict.checks = 3;
  verdict.baseline_events = 10;
  verdict.baseline_vertices = 2;
  verdict.baseline_edges = 1;
  verdict.window_events = 12;
  verdict.window_vertices = 2;
  verdict.window_edges = 1;
  verdict.findings.push_back(DriftFinding{DriftKind::ExecTimeShift, "n0/T1",
                                          "shifted", 0.5, 0.001});
  EXPECT_EQ(
      verdict_to_json(verdict),
      "{\"schema_version\":2,\"drifted\":true,\"checks\":3,"
      "\"baseline\":{\"events\":10,\"vertices\":2,\"edges\":1},"
      "\"window\":{\"events\":12,\"vertices\":2,\"edges\":1},"
      "\"findings\":[{\"kind\":\"exec-time-shift\",\"subject\":\"n0/T1\","
      "\"detail\":\"shifted\",\"statistic\":0.5,\"p_value\":0.001,"
      "\"evidence\":0,\"windows\":0}]}");
}

TEST(SentinelTest, WindowVerdictJsonIsStableAndComplete) {
  WindowVerdict verdict;
  verdict.index = 4;
  verdict.begin = TimePoint{} + Duration::ms(2000);
  verdict.end = TimePoint{} + Duration::ms(3000);
  verdict.events = 120;
  verdict.checks = 7;
  verdict.window_drifted = true;
  verdict.alarmed = true;
  verdict.refreshed = false;
  verdict.alarms.push_back(DriftFinding{DriftKind::LatencyEnvelope,
                                        "/tp0 -> /tp2", "crossed", 1.25,
                                        0.001, 1.25, 3});
  verdict.transient.push_back(DriftFinding{DriftKind::LatencyEnvelope,
                                           "/tp0 -> /tp2", "shifted", 0.6,
                                           0.0, 0.0, 0});
  verdict.localization.push_back(AxisScore{"reprioritize", 0.5});
  verdict.localization.push_back(AxisScore{"retime-timer", 0.5});
  EXPECT_EQ(
      window_verdict_to_json(verdict),
      "{\"schema_version\":2,\"window\":4,"
      "\"t_begin_ns\":2000000000,\"t_end_ns\":3000000000,"
      "\"events\":120,\"checks\":7,"
      "\"window_drifted\":true,\"alarmed\":true,\"refreshed\":false,"
      "\"alarms\":[{\"kind\":\"latency-envelope\","
      "\"subject\":\"/tp0 -> /tp2\",\"detail\":\"crossed\","
      "\"statistic\":1.25,\"p_value\":0.001,\"evidence\":1.25,"
      "\"windows\":3}],"
      "\"transient\":[{\"kind\":\"latency-envelope\","
      "\"subject\":\"/tp0 -> /tp2\",\"detail\":\"shifted\","
      "\"statistic\":0.6,\"p_value\":0,\"evidence\":0,\"windows\":0}],"
      "\"localization\":[{\"axis\":\"reprioritize\",\"score\":0.5},"
      "{\"axis\":\"retime-timer\",\"score\":0.5}]}");
}

TEST(SentinelTest, DriftKindNamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto kind :
       {DriftKind::VertexAdded, DriftKind::VertexRemoved, DriftKind::EdgeAdded,
        DriftKind::EdgeRemoved, DriftKind::ExecTimeShift,
        DriftKind::PeriodShift, DriftKind::LatencyEnvelope,
        DriftKind::DeadlineViolation}) {
    EXPECT_TRUE(names.insert(to_string(kind)).second) << to_string(kind);
  }
  EXPECT_EQ(names.size(), 8u);
}

// ---- labeled-pair sweep -----------------------------------------------------

// The four kinds with an observable trace effect. 3s runs give every
// 40-200ms timer >= 15 instances, enough KS power for disjoint supports.
constexpr scenario::MutationKind kSweepKinds[] = {
    scenario::MutationKind::DropEdge, scenario::MutationKind::AddEdge,
    scenario::MutationKind::RetimeTimer,
    scenario::MutationKind::ScaleExecTime};
constexpr std::uint64_t kSweepSeeds = 20;

scenario::GeneratorOptions sweep_options() {
  scenario::GeneratorOptions options;
  options.run_duration = Duration::ms(3000);
  return options;
}

TEST(SentinelSweepTest, DetectsDriftWithoutFalseAlarms) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;

  int true_positive = 0;
  int false_negative = 0;
  int true_negative = 0;
  int false_positive = 0;
  std::map<scenario::MutationKind, int> applied;
  std::vector<std::string> failures;

  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    DriftEngine engine(SentinelConfig{});
    {
      scenario::ScenarioRunResult baseline = runner.run(scen.spec, 1.0, 0);
      ASSERT_TRUE(engine.ingest_baseline(std::move(baseline.trace)).ok());
    }

    // No-drift pair: the identical spec, resampled (fresh run index).
    {
      scenario::ScenarioRunResult clean = runner.run(scen.spec, 1.0, 1);
      const auto analysis = engine.analyze(std::move(clean.trace));
      ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
      if (analysis->verdict.drifted) {
        ++false_positive;
        failures.push_back("seed " + std::to_string(seed) +
                           " false alarm: " +
                           verdict_to_json(analysis->verdict));
      } else {
        ++true_negative;
      }
    }

    // Drift pairs: one single-axis mutant per kind.
    for (const auto kind : kSweepKinds) {
      const scenario::MutationResult mutant =
          generator.mutate(scen.spec, seed, kind);
      if (!mutant.applied) continue;
      ++applied[kind];
      scenario::ScenarioRunResult drifted = runner.run(mutant.spec, 1.0, 1);
      const auto analysis = engine.analyze(std::move(drifted.trace));
      ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
      if (analysis->verdict.drifted) {
        ++true_positive;
      } else {
        ++false_negative;
        failures.push_back("seed " + std::to_string(seed) + " missed " +
                           std::string(scenario::to_string(kind)) + " (" +
                           mutant.description + ")");
      }
    }
  }

  std::string report;
  for (const auto& failure : failures) report += "\n  " + failure;
  std::printf("confusion matrix: TP=%d FN=%d TN=%d FP=%d\n", true_positive,
              false_negative, true_negative, false_positive);

  // Acceptance: zero false alarms on no-drift pairs, >= 95% detection on
  // drifted pairs, and the sweep must actually have exercised every kind
  // on a healthy majority of seeds.
  EXPECT_EQ(false_positive, 0) << report;
  EXPECT_EQ(true_negative, static_cast<int>(kSweepSeeds));
  const int drift_pairs = true_positive + false_negative;
  ASSERT_GT(drift_pairs, 0);
  const double detection =
      static_cast<double>(true_positive) / static_cast<double>(drift_pairs);
  EXPECT_GE(detection, 0.95) << "detected " << true_positive << "/"
                             << drift_pairs << report;
  for (const auto kind : kSweepKinds) {
    EXPECT_GE(applied[kind], static_cast<int>(kSweepSeeds) / 2)
        << scenario::to_string(kind);
  }
}

// ---- streaming: window geometry and state -----------------------------------

TEST(StreamSentinelTest, AdvanceExceedingSpanIsInvalidArgument) {
  SentinelConfig config;
  config.window_span = Duration::ms(400);
  config.window_advance = Duration::ms(800);
  StreamSentinel stream(config);
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, NonPositiveSpanIsInvalidArgument) {
  SentinelConfig config;
  config.window_span = Duration::ms(0);
  StreamSentinel stream(config);
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, FeedBeforeBaselineIsInvalidArgument) {
  StreamSentinel stream;
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, EvidenceAlphaOutsideUnitIntervalIsInvalidArgument) {
  for (const double alpha : {2.0, 1.0, 0.0, -0.5}) {
    SentinelConfig config;
    config.evidence_alpha = alpha;
    config.window_span = Duration::ms(400);
    config.window_advance = Duration::ms(200);
    StreamSentinel stream(config);
    ASSERT_TRUE(
        stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
            .ok());
    const auto verdicts =
        stream.feed_file(data_path("sentinel_seed7_clean.jsonl"));
    ASSERT_FALSE(verdicts.ok()) << "alpha " << alpha;
    EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
    EXPECT_EQ(stream.windows_advanced(), 0u);
  }
}

TEST(StreamSentinelTest, RefreshHorizonOverflowIsInvalidArgument) {
  // advance * refresh_after must fit the stream clock: a wrapped horizon
  // would evict events the next window still needs.
  const Duration advance = Duration::ms(200);
  const std::size_t first_overflow = static_cast<std::size_t>(
      std::numeric_limits<std::int64_t>::max() / advance.count_ns() + 1);
  for (const std::size_t refresh_after :
       {first_overflow, std::numeric_limits<std::size_t>::max()}) {
    SentinelConfig config;
    config.window_span = Duration::ms(400);
    config.window_advance = advance;
    config.refresh_after = refresh_after;
    StreamSentinel stream(config);
    ASSERT_TRUE(
        stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
            .ok());
    const auto verdicts =
        stream.feed_file(data_path("sentinel_seed7_drift.jsonl"));
    ASSERT_FALSE(verdicts.ok()) << "refresh_after " << refresh_after;
    EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
    EXPECT_EQ(stream.windows_advanced(), 0u);
  }
}

TEST(StreamSentinelTest, StreamShorterThanOneWindowYieldsNoVerdicts) {
  SentinelConfig config;
  config.window_span = Duration::ms(10000);
  config.window_advance = Duration::ms(1000);
  StreamSentinel stream(config);
  ASSERT_TRUE(
      stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  // The 3s fixture never fills a 10s window: the stream must wait for
  // more data, not emit a truncated verdict.
  const auto verdicts =
      stream.feed_file(data_path("sentinel_seed7_clean.jsonl"));
  ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
  EXPECT_TRUE(verdicts->empty());
  EXPECT_EQ(stream.windows_advanced(), 0u);
}

// ---- streaming: the stream buffer -------------------------------------------

/// One long clean stream (a resampled run of the baseline's spec), fed
/// with rebase off and the default window geometry.
struct LongCleanStream {
  trace::EventVector baseline;
  trace::EventVector live;
};

LongCleanStream long_clean_stream(std::uint64_t seed) {
  scenario::GeneratorOptions options;
  options.run_duration = Duration::ms(20000);
  const scenario::ScenarioGenerator generator(options);
  const scenario::ScenarioRunner runner;
  const scenario::Scenario scen = generator.generate(seed);
  return {runner.run(scen.spec, 1.0, 0).trace,
          runner.run(scen.spec, 1.0, 1).trace};
}

/// The stream cut into one batch per window advance, as a live tracer
/// would hand it over; cuts fall `offset` after each window start.
std::vector<trace::EventVector> per_advance_batches(
    const trace::EventVector& live, Duration advance,
    Duration offset = Duration::zero()) {
  std::vector<trace::EventVector> batches;
  for (const trace::TraceEvent& event : live) {
    const auto index = static_cast<std::size_t>(
        (event.time - live.front().time - offset + advance).count_ns() /
        advance.count_ns());
    if (batches.size() <= index) batches.resize(index + 1);
    batches[index].push_back(event);
  }
  return batches;
}

/// Moves every 20th event `eligible` accepts to the next batch, which
/// then starts before the buffered tail, so the buffer merges it in.
/// Only events whose timestamp is unique in the stream qualify, so the
/// merged order is the stream's own, and node creations stay put so the
/// sticky table sees them in order.
std::vector<trace::EventVector> defer_to_next_batch(
    const std::vector<trace::EventVector>& batches,
    const std::function<bool(const trace::TraceEvent&)>& eligible) {
  std::map<std::int64_t, int> time_count;
  for (const auto& batch : batches) {
    for (const auto& event : batch) ++time_count[event.time.count_ns()];
  }
  std::vector<trace::EventVector> out(batches.size());
  std::size_t candidates = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const trace::TraceEvent& event : batches[b]) {
      const bool defer = b + 1 < batches.size() &&
                         time_count[event.time.count_ns()] == 1 &&
                         event.type != trace::EventType::RmwCreateNode &&
                         eligible(event) && ++candidates % 20 == 0;
      out[defer ? b + 1 : b].push_back(event);
    }
  }
  return out;
}

/// Feeds every batch and returns the verdict lines of every window.
std::string feed_all(StreamSentinel& stream,
                     const std::vector<trace::EventVector>& batches) {
  std::string lines;
  for (const trace::EventVector& batch : batches) {
    const auto verdicts = stream.feed(batch);
    EXPECT_TRUE(verdicts.ok()) << verdicts.error().to_string();
    if (!verdicts.ok()) break;
    for (const auto& window : *verdicts) {
      lines += window_verdict_to_json(window) + "\n";
    }
  }
  return lines;
}

TEST(StreamSentinelTest, BatchingDoesNotChangeVerdicts) {
  const LongCleanStream input = long_clean_stream(1);
  const SentinelConfig config;
  ASSERT_FALSE(config.rebase_segments);
  const auto verdicts_of = [&](const std::vector<trace::EventVector>& feed) {
    StreamSentinel stream(config);
    EXPECT_TRUE(stream.ingest_baseline(input.baseline).ok());
    const std::string lines = feed_all(stream, feed);
    EXPECT_EQ(stream.late_events(), 0u);
    return lines;
  };

  const std::string whole = verdicts_of({input.live});
  EXPECT_GE(std::count(whole.begin(), whole.end(), '\n'), 30);
  const std::vector<trace::EventVector> batches =
      per_advance_batches(input.live, config.window_advance);
  EXPECT_EQ(verdicts_of(batches), whole);
  EXPECT_EQ(verdicts_of(defer_to_next_batch(
                batches, [](const trace::TraceEvent&) { return true; })),
            whole);
}

TEST(StreamSentinelTest, OverlappingBatchIsMergedIntoPlace) {
  // With the default geometry every deferred event still sorts into the
  // advance it came from, so a buffer that skipped the merge would cut
  // the same windows. A 700/300 geometry cut 50 ms past each window start
  // does not: events from the 200 ms before a start, deferred past rows
  // after it, must be merged back before that start, or eviction keeps
  // them and the window starting there takes them in.
  const LongCleanStream input = long_clean_stream(1);
  SentinelConfig config;
  config.window_span = Duration::ms(700);
  config.window_advance = Duration::ms(300);
  const auto verdicts_of = [&](const std::vector<trace::EventVector>& feed) {
    StreamSentinel stream(config);
    EXPECT_TRUE(stream.ingest_baseline(input.baseline).ok());
    const std::string lines = feed_all(stream, feed);
    EXPECT_EQ(stream.late_events(), 0u);
    return lines;
  };

  const std::string whole = verdicts_of({input.live});
  const TimePoint origin = input.live.front().time;
  const std::int64_t advance_ns = config.window_advance.count_ns();
  const auto before_a_start = [&](const trace::TraceEvent& event) {
    return (event.time - origin).count_ns() % advance_ns >=
           Duration::ms(100).count_ns();
  };
  EXPECT_EQ(verdicts_of(defer_to_next_batch(
                per_advance_batches(input.live, config.window_advance,
                                    Duration::ms(50)),
                before_a_start)),
            whole);
}

TEST(StreamSentinelTest, LateBatchIsCountedAndChangesNoVerdict) {
  const LongCleanStream input = long_clean_stream(3);
  const SentinelConfig config;
  StreamSentinel reference(config);
  ASSERT_TRUE(reference.ingest_baseline(input.baseline).ok());
  const std::string whole = feed_all(reference, {input.live});

  // After batch k every window ending at or before its first event has
  // closed, so batch k - 3 lies wholly before the current window start.
  const std::vector<trace::EventVector> batches =
      per_advance_batches(input.live, config.window_advance);
  std::vector<trace::EventVector> with_resends;
  std::size_t resent = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    with_resends.push_back(batches[k]);
    if (k >= 3 && k % 5 == 0) {
      with_resends.push_back(batches[k - 3]);
      resent += batches[k - 3].size();
    }
  }
  ASSERT_GT(resent, 0u);
  StreamSentinel stream(config);
  ASSERT_TRUE(stream.ingest_baseline(input.baseline).ok());
  EXPECT_EQ(feed_all(stream, with_resends), whole);
  EXPECT_EQ(stream.late_events(), resent);
}

TEST(StreamSentinelTest, ColumnsAndEventsFeedAlike) {
  const LongCleanStream input = long_clean_stream(7);
  const SentinelConfig config;
  const std::vector<trace::EventVector> batches =
      per_advance_batches(input.live, config.window_advance);
  StreamSentinel by_events(config);
  ASSERT_TRUE(by_events.ingest_baseline(input.baseline).ok());
  const std::string expected = feed_all(by_events, batches);
  EXPECT_FALSE(expected.empty());

  StreamSentinel by_columns(config);
  ASSERT_TRUE(
      by_columns.ingest_baseline(trace::EventColumns(input.baseline)).ok());
  std::string lines;
  for (const trace::EventVector& batch : batches) {
    const auto verdicts = by_columns.feed(trace::EventColumns(batch));
    ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
    for (const auto& window : *verdicts) {
      lines += window_verdict_to_json(window) + "\n";
    }
  }
  EXPECT_EQ(lines, expected);
}

// ---- streaming: baseline auto-refresh hysteresis ----------------------------

TEST(StreamSentinelTest, BaselineAutoRefreshFiresAfterHysteresis) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;
  // First seed whose retime-timer mutation applies: the mutant stream
  // shows a period delta in every window (clean-but-shifted) without
  // structural drift.
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    const scenario::MutationResult mutant =
        generator.mutate(scen.spec, seed, scenario::MutationKind::RetimeTimer);
    if (!mutant.applied) continue;

    SentinelConfig config;
    config.refresh_after = 3;
    // Neutralize every sequential alarm so the windows stay
    // clean-but-shifted: auto-refresh must never absorb alarmed drift.
    config.evidence_alpha = 1e-30;
    config.structural_hits = 1000;
    config.cusum_threshold_fraction = 1e9;

    StreamSentinel stream(config);
    scenario::ScenarioRunResult baseline = runner.run(scen.spec, 1.0, 0);
    ASSERT_TRUE(stream.ingest_baseline(std::move(baseline.trace)).ok());
    scenario::ScenarioRunResult shifted = runner.run(mutant.spec, 1.0, 1);
    const auto verdicts = stream.feed(std::move(shifted.trace));
    ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
    ASSERT_GE(verdicts->size(), 4u);

    std::size_t refresh_count = 0;
    std::size_t refreshed_at = 0;
    for (const auto& window : *verdicts) {
      EXPECT_FALSE(window.alarmed) << window_verdict_to_json(window);
      if (window.refreshed) {
        ++refresh_count;
        refreshed_at = window.index;
      }
    }
    ASSERT_EQ(refresh_count, 1u) << "stream never refreshed its baseline";
    EXPECT_EQ(stream.refreshes(), 1u);
    // K-1 shifted windows arm the hysteresis, the K-th fires it.
    EXPECT_GE(refreshed_at, config.refresh_after - 1);
    // Against the refolded baseline the shifted stream reads clean.
    bool clean_after = false;
    for (const auto& window : *verdicts) {
      if (window.index > refreshed_at && !window.window_drifted) {
        clean_after = true;
      }
    }
    EXPECT_TRUE(clean_after);
    return;
  }
  FAIL() << "no seed produced an applicable retime-timer mutant";
}

// ---- streaming labeled sweep ------------------------------------------------

// Disjoint 500ms windows: small enough that the per-window KS is
// sample-starved (min_samples = 8) while the sequential accumulators
// still see every window — the regime the streaming sentinel exists for.
SentinelConfig stream_sweep_config() {
  SentinelConfig config;
  config.window_span = Duration::ms(500);
  config.window_advance = Duration::ms(500);
  config.rebase_segments = true;
  return config;
}

TimePoint last_event_time(const trace::EventVector& events) {
  TimePoint last;
  for (const auto& event : events) last = std::max(last, event.time);
  return last;
}

TEST(StreamSentinelSweepTest, DetectsMidStreamMutantsWithoutFalseAlarms) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;

  int detected = 0;
  int missed = 0;
  int false_alarms = 0;
  std::size_t latency_windows_sum = 0;
  std::map<scenario::MutationKind, int> applied;
  std::map<scenario::MutationKind, int> sequential_beats_ks;
  std::vector<std::string> failures;

  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    trace::EventVector baseline_trace = runner.run(scen.spec, 1.0, 0).trace;
    const trace::EventVector prefix_trace = runner.run(scen.spec, 1.0, 1).trace;

    // Clean stream: two resampled runs of the identical spec fed as
    // rebased segments. No window may ever alarm.
    {
      StreamSentinel stream(stream_sweep_config());
      ASSERT_TRUE(stream.ingest_baseline(baseline_trace).ok());
      trace::EventVector second_trace = runner.run(scen.spec, 1.0, 2).trace;
      for (trace::EventVector segment :
           {prefix_trace, std::move(second_trace)}) {
        const auto verdicts = stream.feed(std::move(segment));
        ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
        for (const auto& window : *verdicts) {
          if (window.alarmed) {
            ++false_alarms;
            failures.push_back("seed " + std::to_string(seed) +
                               " clean-stream alarm: " +
                               window_verdict_to_json(window));
          }
        }
      }
    }

    // Mutant streams: one clean segment, then a single-axis mutant run
    // rebased onto its end. The stream must stay quiet before the seam
    // and alarm after it.
    for (const auto kind : kSweepKinds) {
      const scenario::MutationResult mutant =
          generator.mutate(scen.spec, seed, kind);
      if (!mutant.applied) continue;
      ++applied[kind];

      StreamSentinel stream(stream_sweep_config());
      ASSERT_TRUE(stream.ingest_baseline(baseline_trace).ok());
      trace::EventVector clean_segment = prefix_trace;
      const TimePoint seam = last_event_time(clean_segment) + kRebaseGap;

      bool pre_seam_alarm = false;
      auto clean_verdicts = stream.feed(std::move(clean_segment));
      ASSERT_TRUE(clean_verdicts.ok()) << clean_verdicts.error().to_string();
      for (const auto& window : *clean_verdicts) {
        pre_seam_alarm = pre_seam_alarm || window.alarmed;
      }

      scenario::ScenarioRunResult drifted = runner.run(mutant.spec, 1.0, 3);
      auto drift_verdicts = stream.feed(std::move(drifted.trace));
      ASSERT_TRUE(drift_verdicts.ok()) << drift_verdicts.error().to_string();

      bool post_seam_alarm = false;
      bool have_first_post = false;
      bool have_exec_transient = false;
      std::size_t first_post_index = 0;
      std::size_t first_alarm_index = 0;
      std::size_t first_exec_transient_index = 0;
      for (const auto& window : *drift_verdicts) {
        if (!(window.end > seam)) {
          // All-clean data; an alarm here is a false one. Windows
          // straddling the seam count as post-seam — a dropped edge
          // breaks its chain the instant mutant events appear, so a
          // straddling-window alarm is a genuine (early) detection.
          pre_seam_alarm = pre_seam_alarm || window.alarmed;
          continue;
        }
        if (!have_first_post) {
          have_first_post = true;
          first_post_index = window.index;
        }
        if (!have_exec_transient) {
          for (const auto& finding : window.transient) {
            if (finding.kind == DriftKind::ExecTimeShift) {
              have_exec_transient = true;
              first_exec_transient_index = window.index;
              break;
            }
          }
        }
        if (window.alarmed && !post_seam_alarm) {
          post_seam_alarm = true;
          first_alarm_index = window.index;
        }
      }

      if (pre_seam_alarm) {
        ++false_alarms;
        failures.push_back("seed " + std::to_string(seed) + " " +
                           std::string(scenario::to_string(kind)) +
                           " alarmed before the seam");
      }
      if (post_seam_alarm) {
        ++detected;
        latency_windows_sum += first_alarm_index - first_post_index;
        // Sequential evidence beats the per-window KS when it alarms in
        // a stream where the per-window test never fired, or no later
        // than its first firing.
        if (!have_exec_transient ||
            first_alarm_index <= first_exec_transient_index) {
          ++sequential_beats_ks[kind];
        }
      } else {
        ++missed;
        failures.push_back("seed " + std::to_string(seed) + " missed " +
                           std::string(scenario::to_string(kind)) + " (" +
                           mutant.description + ")");
      }
    }
  }

  std::string report;
  for (const auto& failure : failures) report += "\n  " + failure;
  const int drift_streams = detected + missed;
  ASSERT_GT(drift_streams, 0);
  std::printf("streaming sweep: detected=%d missed=%d false_alarms=%d "
              "mean_latency=%.2f windows\n",
              detected, missed, false_alarms,
              detected > 0 ? static_cast<double>(latency_windows_sum) /
                                 static_cast<double>(detected)
                           : 0.0);

  // Acceptance: zero false alarms anywhere, >= 95% detection, prompt
  // detection, and sequential evidence beating the per-window KS for the
  // exec-time axis (the ISSUE's headline claim).
  EXPECT_EQ(false_alarms, 0) << report;
  const double detection =
      static_cast<double>(detected) / static_cast<double>(drift_streams);
  EXPECT_GE(detection, 0.95) << "detected " << detected << "/" << drift_streams
                             << report;
  if (detected > 0) {
    const double mean_latency = static_cast<double>(latency_windows_sum) /
                                static_cast<double>(detected);
    EXPECT_LE(mean_latency, 4.0);
  }
  EXPECT_GE(sequential_beats_ks[scenario::MutationKind::ScaleExecTime], 1);
  for (const auto kind : kSweepKinds) {
    EXPECT_GE(applied[kind], static_cast<int>(kSweepSeeds) / 2)
        << scenario::to_string(kind);
  }
}

// ---- seed-7 golden verdict --------------------------------------------------

class SentinelGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ingest_baseline_file(
                        data_path("scenario_seed7_trace.jsonl"))
                    .ok());
  }
  DriftEngine engine_{SentinelConfig{}};
};

TEST_F(SentinelGoldenTest, CleanWindowIsClean) {
  const auto analysis =
      engine_.analyze_file(data_path("sentinel_seed7_clean.jsonl"));
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const DriftVerdict& verdict = analysis->verdict;
  EXPECT_FALSE(verdict.drifted) << verdict_to_json(verdict);
  EXPECT_TRUE(verdict.findings.empty());
  EXPECT_GT(verdict.checks, 0u);
  EXPECT_EQ(engine_.windows_analyzed(), 1u);
}

TEST_F(SentinelGoldenTest, DriftWindowMatchesGoldenVerdict) {
  const auto analysis =
      engine_.analyze_file(data_path("sentinel_seed7_drift.jsonl"));
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  EXPECT_TRUE(analysis->verdict.drifted);
  std::string golden = read_file(data_path("sentinel_seed7_verdict.json"));
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(verdict_to_json(analysis->verdict), golden);
}

TEST_F(SentinelGoldenTest, DeadlineViolationFiresOnConfiguredChain) {
  // The drifted window's service chain mean moved to ~1.8ms; a 1ms
  // deadline on that chain must raise DeadlineViolation on top of the
  // envelope finding.
  SentinelConfig config;
  config.chain_deadlines["/svc0Request -> /svc0Reply"] = Duration::ms(1);
  DriftEngine strict(config);
  ASSERT_TRUE(
      strict.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  const auto analysis =
      strict.analyze_file(data_path("sentinel_seed7_drift.jsonl"));
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  bool deadline_finding = false;
  for (const auto& finding : analysis->verdict.findings) {
    deadline_finding =
        deadline_finding || finding.kind == DriftKind::DeadlineViolation;
  }
  EXPECT_TRUE(deadline_finding) << verdict_to_json(analysis->verdict);
}

}  // namespace
}  // namespace tetra::sentinel
