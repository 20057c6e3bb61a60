// Tests for the tracer-overhead subsystem (src/overhead/): probe cost
// profiles, scheduler-level injection, trace-level estimation, synthesis
// compensation, 1-in-K instance sampling and the round-trip property the
// subsystem exists for — probed traces compensate back to the probe-free
// model (docs/OVERHEAD.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"
#include "core/extract.hpp"
#include "overhead/estimator.hpp"
#include "overhead/profile.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sched/machine.hpp"
#include "sim/simulator.hpp"
#include "trace/serialize.hpp"

namespace tetra {
namespace {

using overhead::ProbeCostProfile;

// ---- profiles ------------------------------------------------------------

TEST(ProbeCostProfileTest, PresetsAndParsing) {
  const auto uprobe = ProbeCostProfile::preset("uprobe");
  ASSERT_TRUE(uprobe.has_value());
  EXPECT_EQ(uprobe->cost, Duration::us(5));
  EXPECT_TRUE(uprobe->injects());

  const auto free = ProbeCostProfile::parse("free");
  ASSERT_TRUE(free.has_value());
  EXPECT_FALSE(free->injects());
  EXPECT_FALSE(free->active());

  const auto custom = ProbeCostProfile::parse("5us~500ns");
  ASSERT_TRUE(custom.has_value());
  EXPECT_EQ(custom->cost, Duration::us(5));
  EXPECT_EQ(custom->jitter, Duration::ns(500));

  const auto bare = ProbeCostProfile::parse("250");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->cost, Duration::ns(250));

  EXPECT_FALSE(ProbeCostProfile::parse("bogus").has_value());
  EXPECT_FALSE(ProbeCostProfile::parse("5us~x").has_value());
  EXPECT_FALSE(overhead::parse_duration("12parsecs").has_value());
  EXPECT_EQ(overhead::parse_duration("3ms"), Duration::ms(3));
}

// ---- scheduler-level injection -------------------------------------------

TEST(OverheadInjectionTest, DebtExtendsComputeOnTracedThread) {
  sim::Simulator sim;
  sched::Machine machine(sim, {.num_cpus = 1});
  std::vector<std::int64_t> marks;
  sched::Thread* thread = nullptr;
  thread = &machine.create_thread({.name = "worker"}, [&] {
    thread->inject_overhead(Duration::us(10));
    thread->compute(Duration::ms(1), [&] {
      marks.push_back(sim.now().count_ns());
      thread->terminate();
    });
  });
  sim.run_until(TimePoint{Duration::ms(100).count_ns()});
  ASSERT_EQ(marks.size(), 1u);
  // The 10 us debt is folded into the staged 1 ms compute.
  EXPECT_EQ(marks[0], Duration::ms(1).count_ns() + Duration::us(10).count_ns());
  EXPECT_EQ(thread->overhead_time(), Duration::us(10));
  EXPECT_EQ(thread->cpu_time(),
            Duration::ms(1) + Duration::us(10));
}

TEST(OverheadInjectionTest, DebtDelaysBlockingRequests) {
  sim::Simulator sim;
  sched::Machine machine(sim, {.num_cpus = 1});
  std::vector<std::int64_t> marks;
  sched::Thread* thread = nullptr;
  thread = &machine.create_thread({.name = "sleeper"}, [&] {
    thread->inject_overhead(Duration::us(50));
    thread->sleep_for(Duration::ms(1), [&] {
      marks.push_back(sim.now().count_ns());
      thread->terminate();
    });
  });
  sim.run_until(TimePoint{Duration::ms(100).count_ns()});
  ASSERT_EQ(marks.size(), 1u);
  // The debt computes first, then the full sleep: wakeup at 1.05 ms.
  EXPECT_EQ(marks[0],
            Duration::ms(1).count_ns() + Duration::us(50).count_ns());
  EXPECT_EQ(thread->overhead_time(), Duration::us(50));
}

// ---- scenario helpers ----------------------------------------------------

scenario::ScenarioSpec pipeline_spec(std::uint64_t seed,
                                     Duration body = Duration::us(50)) {
  scenario::ScenarioSpec spec;
  spec.name = "overhead-pipeline";
  spec.seed = seed;
  spec.num_cpus = 2;
  spec.run_duration = Duration::ms(400);

  scenario::ScenarioNodeSpec sensor;
  sensor.name = "sensor";
  scenario::TimerSpec timer;
  timer.period = Duration::ms(5);
  timer.demand = DurationDistribution::constant(body);
  timer.effects.push_back(scenario::publish_effect("/points"));
  sensor.timers.push_back(timer);

  scenario::ScenarioNodeSpec proc;
  proc.name = "proc";
  scenario::SubscriptionSpec sub;
  sub.topic = "/points";
  sub.demand = DurationDistribution::constant(body);
  proc.subscriptions.push_back(sub);

  spec.nodes = {sensor, proc};
  return spec;
}

scenario::ScenarioRunResult run_with_profile(const scenario::ScenarioSpec& spec,
                                             const ProbeCostProfile& profile,
                                             bool compensate = false) {
  scenario::RunnerOptions options;
  options.probe_profile = profile;
  options.compensate_overhead = compensate;
  return scenario::ScenarioRunner(options).run(spec);
}

// ---- injection end to end ------------------------------------------------

TEST(OverheadInjectionTest, ProbeCostInflatesMeasuredExecutionTimes) {
  const scenario::ScenarioSpec spec = pipeline_spec(11);
  const auto free_run = run_with_profile(spec, ProbeCostProfile{});
  const auto probed = run_with_profile(spec, *ProbeCostProfile::parse("5us"));

  EXPECT_GT(probed.overhead.injected_time, Duration::zero());
  EXPECT_GT(probed.overhead.probe_hits, 0u);

  // Every matched vertex measures strictly longer under 5 us probes (the
  // 50 us bodies gain ~3 hits x 5 us each).
  std::size_t compared = 0;
  for (const auto& vertex : free_run.model.dag.vertices()) {
    const core::DagVertex* other = probed.model.dag.find_vertex(vertex.key);
    if (other == nullptr || vertex.macet() == Duration::zero()) continue;
    EXPECT_GT(other->macet(), vertex.macet()) << vertex.key;
    ++compared;
  }
  EXPECT_GE(compared, 2u);
}

TEST(OverheadInjectionTest, FreeProfileLeavesTraceUntouched) {
  const scenario::ScenarioSpec spec = pipeline_spec(12);
  const auto baseline = scenario::ScenarioRunner().run(spec);
  const auto free_run = run_with_profile(spec, ProbeCostProfile{});
  EXPECT_EQ(trace::to_jsonl(baseline.trace), trace::to_jsonl(free_run.trace));
  EXPECT_EQ(free_run.overhead.injected_time, Duration::zero());
}

// ---- determinism (satellite c) -------------------------------------------

TEST(OverheadDeterminismTest, JitteredRunsAreByteIdentical) {
  const scenario::ScenarioSpec spec = pipeline_spec(21);
  const ProbeCostProfile profile = *ProbeCostProfile::parse("5us~500ns");
  const auto first = run_with_profile(spec, profile);
  const auto second = run_with_profile(spec, profile);
  EXPECT_EQ(trace::to_jsonl(first.trace), trace::to_jsonl(second.trace));
}

TEST(OverheadDeterminismTest, ProfileSeedChangesJitterStream) {
  const scenario::ScenarioSpec spec = pipeline_spec(22);
  ProbeCostProfile profile = *ProbeCostProfile::parse("5us~500ns");
  const auto first = run_with_profile(spec, profile);
  profile.seed ^= 0x1234ULL;
  const auto reseeded = run_with_profile(spec, profile);
  EXPECT_NE(trace::to_jsonl(first.trace), trace::to_jsonl(reseeded.trace));
}

TEST(OverheadDeterminismTest, SampledRunsAreByteIdentical) {
  const scenario::ScenarioSpec spec = pipeline_spec(23);
  ProbeCostProfile profile = *ProbeCostProfile::preset("uprobe");
  profile.sample_every = 4;
  const auto first = run_with_profile(spec, profile);
  const auto second = run_with_profile(spec, profile);
  EXPECT_EQ(trace::to_jsonl(first.trace), trace::to_jsonl(second.trace));
}

// ---- estimation ----------------------------------------------------------

TEST(OverheadEstimatorTest, RecoversConstantProbeCost) {
  const scenario::ScenarioSpec spec = pipeline_spec(31);
  const auto probed = run_with_profile(spec, *ProbeCostProfile::parse("5us"));
  const overhead::OverheadEstimate estimate =
      overhead::estimate_probe_cost(probed.trace);
  ASSERT_TRUE(estimate.usable());
  EXPECT_NEAR(static_cast<double>(estimate.per_hit.count_ns()), 5000.0, 50.0);
}

TEST(OverheadEstimatorTest, FreeTraceEstimatesZero) {
  const scenario::ScenarioSpec spec = pipeline_spec(32);
  const auto free_run = run_with_profile(spec, ProbeCostProfile{});
  const overhead::OverheadEstimate estimate =
      overhead::estimate_probe_cost(free_run.trace);
  EXPECT_EQ(estimate.per_hit, Duration::zero());
}

// ---- compensation --------------------------------------------------------

TEST(OverheadCompensationTest, RoundTripAcrossTwentySeeds) {
  const ProbeCostProfile profile = *ProbeCostProfile::parse("5us");
  double comp_total = 0.0;
  double uncomp_total = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const scenario::OverheadRoundTripResult trip =
        scenario::run_overhead_round_trip(pipeline_spec(seed), profile);
    ASSERT_GE(trip.compensated.matched, 2u) << "seed " << seed;
    // Compensated models land on the probe-free truth; uncompensated ones
    // are off by the injected hits x 5 us (>= 10 us per vertex here).
    EXPECT_LE(trip.compensated.mean_abs_error_ns, 500.0) << "seed " << seed;
    EXPECT_GE(trip.uncompensated.mean_abs_error_ns, 10000.0)
        << "seed " << seed;
    comp_total += trip.compensated.mean_abs_error_ns;
    uncomp_total += trip.uncompensated.mean_abs_error_ns;
  }
  // In aggregate, compensation recovers at least 99% of the injected bias.
  EXPECT_LT(comp_total, uncomp_total / 100.0);
}

TEST(OverheadCompensationTest, ExplicitHintSkipsEstimation) {
  const scenario::ScenarioSpec spec = pipeline_spec(41);
  const auto truth = run_with_profile(spec, ProbeCostProfile{});
  const auto probed = run_with_profile(spec, *ProbeCostProfile::parse("5us"));

  api::SynthesisSession session(api::SynthesisConfig()
                                    .compensate_overhead(true)
                                    .probe_cost_hint(Duration::us(5)));
  session.ingest(probed.trace, {.trace_id = "probed", .mode = ""});
  const core::TimingModel model = session.model().value();
  for (const auto& vertex : truth.model.dag.vertices()) {
    const core::DagVertex* other = model.dag.find_vertex(vertex.key);
    if (other == nullptr || vertex.macet() == Duration::zero()) continue;
    EXPECT_NEAR(static_cast<double>(other->macet().count_ns()),
                static_cast<double>(vertex.macet().count_ns()), 500.0)
        << vertex.key;
  }
}

TEST(OverheadCompensationTest, OversizedCostClampsAtZero) {
  const scenario::ScenarioSpec spec = pipeline_spec(42);
  const auto probed = run_with_profile(spec, *ProbeCostProfile::parse("5us"));
  core::TraceIndex index(probed.trace);
  core::ExtractOptions options;
  options.compensate_per_hit = Duration::ms(10);  // >> any execution time
  for (const auto& list : core::extract_all_nodes(index, options)) {
    for (const auto& record : list.records) {
      EXPECT_EQ(record.stats.mwcet(), Duration::zero()) << list.node_name;
    }
  }
}

/// A full compensated synthesis from the core functions alone: one index
/// over `events`, the per-hit cost estimated from it, Alg. 1 and the DAG.
std::string compensated_reference(const trace::EventVector& events) {
  const core::TraceIndex index(events);
  core::ExtractOptions extract;
  extract.compensate_per_hit = overhead::estimate_probe_cost(index).per_hit;
  std::vector<core::CallbackList> lists =
      core::extract_all_nodes(index, extract);
  core::merge_worker_lists(lists);
  core::normalize_labels(lists);
  return core::to_json(core::build_dag(lists, core::DagOptions{}));
}

TEST(OverheadCompensationTest, IncrementalCompensationMatchesFullSynthesis) {
  // Every query re-estimates the probe cost from the events so far and
  // must match a full compensated synthesis of the same events, byte for
  // byte. The jittered profile makes the estimate move between queries.
  for (const char* profile : {"5us", "5us~2us"}) {
    const trace::EventVector events =
        run_with_profile(pipeline_spec(43), *ProbeCostProfile::parse(profile))
            .trace;
    // Contiguous cuts touch every node. Holding back one node's ROS2
    // events leaves the other node untouched by the last segment, so only
    // the changed estimate can move its model.
    std::vector<std::vector<trace::EventVector>> splits(1);
    constexpr std::size_t kCuts = 4;
    for (std::size_t i = 0; i < kCuts; ++i) {
      splits[0].emplace_back(events.begin() + events.size() * i / kCuts,
                             events.begin() + events.size() * (i + 1) / kCuts);
    }
    Pid held = 0;
    for (const trace::TraceEvent& e : events) {
      if (e.type == trace::EventType::RmwCreateNode) held = e.pid;
    }
    trace::EventVector rest, held_ros;
    for (const trace::TraceEvent& e : events) {
      const bool sched = e.type == trace::EventType::SchedSwitch ||
                         e.type == trace::EventType::SchedWakeup;
      (e.pid == held && !sched ? held_ros : rest).push_back(e);
    }
    splits.push_back({rest, held_ros});
    if (std::string(profile) != "5us") {
      EXPECT_NE(overhead::estimate_probe_cost(rest).per_hit,
                overhead::estimate_probe_cost(events).per_hit);
    }

    for (const auto& segments : splits) {
      api::SynthesisSession session(
          api::SynthesisConfig().compensate_overhead(true));
      trace::EventVector seen;
      for (const trace::EventVector& segment : segments) {
        ASSERT_TRUE(
            session.ingest(segment, {.trace_id = "probed", .mode = ""}).ok());
        seen.insert(seen.end(), segment.begin(), segment.end());
        trace::sort_by_time(seen);
        const auto model = session.model();
        ASSERT_TRUE(model.ok()) << model.error().to_string();
        EXPECT_EQ(core::to_json(model.value().dag),
                  compensated_reference(seen))
            << profile << ", " << segments.size() << " segments, "
            << seen.size() << " events so far";
      }
    }
  }
}

// ---- adaptive sampling ---------------------------------------------------

TEST(OverheadSamplingTest, HigherKTracesFewerInstancesAndEvents) {
  const scenario::ScenarioSpec spec = pipeline_spec(51, Duration::us(100));
  std::uint64_t last_events = ~0ULL;
  std::uint64_t last_sampled = ~0ULL;
  for (unsigned k : {1u, 4u, 16u}) {
    ProbeCostProfile profile = *ProbeCostProfile::preset("uprobe");
    profile.sample_every = k;
    const auto run = run_with_profile(spec, profile, /*compensate=*/true);
    EXPECT_LT(run.overhead.events, last_events) << "K=" << k;
    EXPECT_LT(run.overhead.instances_sampled, last_sampled) << "K=" << k;
    EXPECT_GT(run.overhead.instances_total, 0u);
    // The thinned trace still synthesizes a usable model.
    EXPECT_GE(run.model.dag.vertex_count(), 2u) << "K=" << k;
    last_events = run.overhead.events;
    last_sampled = run.overhead.instances_sampled;
  }
}

}  // namespace
}  // namespace tetra
