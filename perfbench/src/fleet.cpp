// fleet_jsonl and fleet_ttb: a fleet of robots, each running the paper's
// SYN app (Fig. 3a) under its own seed. Each robot's trace is cut into
// segment files, and every file goes through SynthesisSession::ingest_file
// under one trace id per robot, followed by one model() and to_json —
// what tetra_synth does. fleet_ttb writes the same fleet as .ttb, so decode
// is nearly free, and then runs a WhatIfExplorer grid over the fleet model,
// as tetra_predict does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/export.hpp"
#include "layers.hpp"
#include "predict/what_if.hpp"
#include "scenario/ground_truth.hpp"
#include "scenario/validator.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"
#include "workloads.hpp"
#include "workloads/syn_app.hpp"

namespace perfbench {

using namespace tetra;

namespace {

constexpr int kRobots = 16;
constexpr int kSegmentsPerRobot = 4;
const Duration kRobotRun = Duration::sec(15);

// The what-if grid (fleet_ttb): sized so the predict stage runs about as
// long as the synthesis before it.
const std::vector<double> kExecScales = {0.5, 0.75, 1.0,  1.25,
                                         1.5, 1.75, 2.0, 2.5};
const std::vector<int> kCpuCounts = {1, 2, 3, 4, 6};

scenario::ScenarioSpec robot_spec(std::uint64_t seed, int robot) {
  scenario::ScenarioSpec spec = workloads::syn_scenario_spec();
  spec.seed = derive_seed(seed, static_cast<std::uint64_t>(robot));
  spec.run_duration = kRobotRun;
  return spec;
}

struct FleetFiles {
  std::vector<std::vector<std::string>> paths;  ///< per robot, per segment
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  /// The segments themselves, kept only for the traced run's replays.
  std::vector<std::vector<trace::EventVector>> segments;
};

FleetFiles write_fleet(const Options& options, bool ttb, bool keep,
                       SpanLog* log) {
  const std::string dir = options.work_dir + "/fleet";
  std::filesystem::create_directories(dir);
  FleetFiles fleet;
  for (int robot = 0; robot < kRobots; ++robot) {
    const trace::EventVector events =
        simulate(robot_spec(options.seed, robot), 0, log);
    fleet.events += events.size();
    std::vector<trace::EventVector> segments = cut(events, kSegmentsPerRobot);
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const std::string path = dir + "/robot-" + std::to_string(robot) +
                               "-seg-" + std::to_string(s) +
                               (ttb ? ".ttb" : ".jsonl");
      if (ttb) {
        trace::write_ttb_file(path, segments[s]);
      } else {
        trace::write_jsonl_file(path, segments[s]);
      }
      fleet.bytes += std::filesystem::file_size(path);
      paths.push_back(path);
    }
    fleet.paths.push_back(std::move(paths));
    if (keep) fleet.segments.push_back(std::move(segments));
  }
  return fleet;
}

struct FleetPass {
  double synth_ms = 0.0;   ///< first file read to exported model JSON
  double whatif_ms = 0.0;  ///< the what-if grid (fleet_ttb)
  std::size_t candidates = 0;
  std::vector<double> call_ms;  ///< one per ingest_file
  core::TimingModel model;
  std::string model_json;
};

std::string robot_id(std::size_t robot) {
  return "robot-" + std::to_string(robot);
}

/// One measured pass. Operations: every file ingest, the model query
/// (failed unless it matches the SYN ground truth) and every what-if
/// candidate (failed when no chain completes).
FleetPass run_pass(const FleetFiles& fleet, const scenario::GroundTruth& truth,
                   const predict::PredictionConfig& base,
                   const std::vector<predict::WhatIfCandidate>* grid,
                   SpanLog* log, Outcome& outcome) {
  FleetPass pass;
  api::SynthesisSession session(api::SynthesisConfig().threads(1));
  std::optional<api::Result<core::TimingModel>> model;
  const auto t0 = Clock::now();
  {
    SpanLog::Scope phase(log, "fleet.synthesis");
    for (std::size_t robot = 0; robot < fleet.paths.size(); ++robot) {
      for (const std::string& path : fleet.paths[robot]) {
        const auto c0 = Clock::now();
        bool ok = false;
        {
          SpanLog::Scope call(log, "api.ingest_file");
          const api::Result<api::SegmentInfo> info = session.ingest_file(
              path, {.trace_id = robot_id(robot), .mode = ""});
          ok = info.ok();
          if (ok) call.set_items(info.value().event_count);
        }
        pass.call_ms.push_back(ms_between(c0, Clock::now()));
        outcome.operation(ok, ok ? "" : "ingest_file failed for " + path);
      }
    }
    {
      SpanLog::Scope query(log, "api.model");
      model.emplace(session.model());
    }
    if (model->ok()) {
      SpanLog::Scope ex(log, "core.export");
      pass.model_json = core::to_json(model->value().dag);
    }
  }
  pass.synth_ms = ms_between(t0, Clock::now());

  if (!model->ok()) {
    outcome.operation(false, "model() failed: " + model->error().to_string());
    return pass;
  }
  pass.model = std::move(*model).take();
  const scenario::ValidationReport report =
      scenario::RoundTripValidator().validate_dag(pass.model.dag, truth);
  outcome.operation(report.ok(),
                    report.ok() ? ""
                                : "fleet model differs from the SYN ground "
                                  "truth: " + report.to_string());

  if (grid != nullptr) {
    predict::WhatIfExplorer explorer(pass.model.dag, base);
    for (const predict::WhatIfCandidate& candidate : *grid) {
      explorer.add(candidate);
    }
    const auto w0 = Clock::now();
    std::vector<predict::WhatIfOutcome> outcomes;
    {
      SpanLog::Scope span(log, "predict.explore", grid->size());
      outcomes = explorer.explore();
    }
    pass.whatif_ms = ms_between(w0, Clock::now());
    pass.candidates = outcomes.size();
    for (const predict::WhatIfOutcome& result : outcomes) {
      const bool scored = std::isfinite(result.score_ms);
      outcome.operation(scored, scored ? ""
                                       : "what-if candidate " +
                                             result.candidate.name +
                                             " completed no chain");
    }
  }
  return pass;
}

}  // namespace

Outcome run_fleet(const Options& options, bool ttb) {
  Outcome outcome;
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;

  // -- set-up: simulate the fleet and write its segment files -------------
  const std::size_t setup_mark = spans.mark();
  std::vector<double> setup_s;
  FleetFiles fleet;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const auto t0 = Clock::now();
    FleetFiles fresh = write_fleet(options, ttb,
                                   options.trace && repeat == kSetupRepeats - 1,
                                   log);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (repeat > 0) {
      outcome.check(fresh.events == fleet.events && fresh.bytes == fleet.bytes,
                    "set-up is not deterministic");
    }
    fleet = std::move(fresh);
  }
  const SpanTotals scenario_totals = spans.totals(setup_mark, spans.mark());

  const scenario::GroundTruth truth =
      scenario::build_ground_truth(robot_spec(options.seed, 0));
  predict::PredictionConfig base;
  base.seed = options.seed;
  base.horizon = kRobotRun;
  const std::vector<predict::WhatIfCandidate> grid =
      whatif_grid(kExecScales, kCpuCounts);
  const std::vector<predict::WhatIfCandidate>* stage = ttb ? &grid : nullptr;

  // -- measured phase: one warm-up pass, then untraced passes --------------
  reset_peak_rss();
  Outcome warm_up;  // the measured passes count the same operations
  const FleetPass warm = run_pass(fleet, truth, base, stage, nullptr, warm_up);
  for (const std::string& problem : warm_up.problems) outcome.check(false, problem);
  const std::string& reference_json = warm.model_json;
  const double budget_ms = options.seconds * 1e3;
  std::vector<PassSample> passes;
  const auto measure = [&](const FleetPass& pass) {
    outcome.check(pass.model_json == reference_json,
                  "fleet model JSON changed between passes");
    passes.push_back(PassSample{
        .wall_ms = pass.synth_ms + pass.whatif_ms,
        .events = static_cast<double>(fleet.events),
        .event_ms = pass.synth_ms,
        .answers = ttb ? static_cast<double>(pass.candidates) : 1.0,
        .answer_ms = ttb ? pass.whatif_ms : pass.synth_ms,
        .call_ms = pass.call_ms});
  };

  if (!options.trace) {
    const auto start = Clock::now();
    while (!enough_calls(passes) ||
           ms_between(start, Clock::now()) < budget_ms) {
      measure(run_pass(fleet, truth, base, stage, nullptr, outcome));
    }
    std::printf("%s: %d robots, %llu events in %zu segment files, "
                "%zu passes, metrics from the fastest %zu\n",
                ttb ? "fleet_ttb" : "fleet_jsonl", kRobots,
                static_cast<unsigned long long>(fleet.events),
                passes.front().call_ms.size(), passes.size(),
                fastest_passes(passes).size());
    outcome.end_to_end(setup_s, passes);
    return outcome;
  }

  // -- traced run -----------------------------------------------------------
  LayerReport report;
  report.scenario = scenario_totals;

  std::vector<const trace::EventVector*> all_segments;
  for (const auto& robot : fleet.segments) {
    for (const trace::EventVector& segment : robot) all_segments.push_back(&segment);
  }
  std::size_t mark = spans.mark();
  report.sweep = codec_sweep(all_segments, options.work_dir + "/sweep", log, outcome);
  report.trace = spans.totals(mark, spans.mark());

  // Untraced and traced passes alternate, so the difference between them
  // is the tracing overhead. After each traced pass the decode and the
  // core calls are replayed on the same files; the replayed DAG must equal
  // the session's byte for byte.
  const api::SynthesisConfig config = api::SynthesisConfig().threads(1);
  mark = spans.mark();
  std::vector<double> traced_synth_ms;
  core::TimingModel model;
  const auto traced_start = Clock::now();
  while (traced_synth_ms.empty() ||
         ms_between(traced_start, Clock::now()) < budget_ms) {
    measure(run_pass(fleet, truth, base, stage, nullptr, outcome));
    FleetPass pass = run_pass(fleet, truth, base, stage, log, outcome);
    traced_synth_ms.push_back(pass.synth_ms);
    // Decoded copies are freed outside the spans, as ingest_file keeps
    // its copy; the core replay runs on them, as model() runs on its own.
    std::vector<std::vector<trace::EventVector>> decoded(fleet.paths.size());
    for (std::size_t robot = 0; robot < fleet.paths.size(); ++robot) {
      for (const std::string& path : fleet.paths[robot]) {
        SpanLog::Scope span(log, "trace.decode");
        if (ttb) {
          const trace::TtbReader reader(path);
          decoded[robot].push_back(reader.materialize());
        } else {
          decoded[robot].push_back(trace::read_jsonl_file(path));
        }
        span.set_items(decoded[robot].back().size());
      }
    }
    core::Dag merged;
    std::vector<core::TimingModel> robots;
    for (const auto& robot : decoded) {
      std::vector<const trace::EventVector*> segments;
      for (const trace::EventVector& segment : robot) segments.push_back(&segment);
      robots.push_back(replay_synthesis(segments, config, log));
    }
    {
      SpanLog::Scope span(log, "core.dag_merge", robots.size());
      for (const core::TimingModel& robot : robots) merged.merge(robot.dag);
    }
    outcome.check(core::to_json(merged) == pass.model_json,
                  "core replay DAG differs from the session's fleet DAG");
    model = std::move(pass.model);
  }
  report.core = spans.totals(mark, spans.mark());
  report.counts.add(model);

  // ingest_file = decode + api.ingest residual; model() = core calls +
  // api.session_self residual; the exported JSON is core.export.
  const double traced_passes = static_cast<double>(traced_synth_ms.size());
  const SpanLog::Totals ingest = span_totals(report.core, "api.ingest_file");
  const SpanLog::Totals decode = span_totals(report.core, "trace.decode");
  const SpanLog::Totals query = span_totals(report.core, "api.model");
  const double core_ms = core_replay_ms(report.core) +
                         span_totals(report.core, "core.dag_merge").total_ms;
  report.api_ingest_ns_per_event =
      (ingest.total_ms - decode.total_ms) * 1e6 /
      static_cast<double>(std::max<std::uint64_t>(ingest.items, 1));
  report.api_model_ms = query.total_ms / traced_passes;
  report.api_session_self_ms = (query.total_ms - core_ms) / traced_passes;
  // The named layers plus both residuals add up to the three calls, so
  // the share is what those calls cover of the measured phase.
  report.accounted_share =
      (ingest.total_ms + query.total_ms +
       span_totals(report.core, "core.export").total_ms) /
      span_totals(report.core, "fleet.synthesis").total_ms;
  std::vector<double> synth_ms;
  for (const PassSample& untraced : passes) synth_ms.push_back(untraced.event_ms);
  report.tracing_overhead_pct =
      (median(traced_synth_ms) / median(synth_ms) - 1.0) * 100.0;

  mark = spans.mark();
  replay_whatif(model.dag, base, grid, log, outcome);
  report.predict = spans.totals(mark, spans.mark());

  // The sentinel layer on this fleet: robot 1 monitored against robot 0.
  {
    const sentinel::SentinelConfig sentinel_config;
    trace::EventVector baseline, live;
    for (const trace::EventVector& s : fleet.segments[0]) {
      baseline.insert(baseline.end(), s.begin(), s.end());
    }
    for (const trace::EventVector& s : fleet.segments[1]) {
      live.insert(live.end(), s.begin(), s.end());
    }
    const MonitorInput input =
        monitor_input(std::move(baseline), live, sentinel_config);
    Outcome probe;
    mark = spans.mark();
    report.stream = run_monitor(input, sentinel_config, log, true, probe);
    report.sentinel = spans.totals(mark, spans.mark());
    for (const std::string& problem : probe.problems) outcome.check(false, problem);
  }

  report.spans = spans.mark();
  emit_layer_metrics(report, outcome);
  spans.write(options.spans_out, "{\"workload\": \"" +
                                     std::string(ttb ? "fleet_ttb" : "fleet_jsonl") +
                                     "\", \"seed\": " +
                                     std::to_string(options.seed) + "}");
  return outcome;
}

}  // namespace perfbench
