// sentinel_live: a fleet of StreamSentinel monitors, one per generated
// scenario — the `tetra_sentinel --follow` tail. Each monitor gets a
// baseline run and a live run of the same spec at the same demand, so every
// stream is clean by construction; the live run is fed in batches of one
// window advance, so each feed() closes about one window. Many ~1 s
// syntheses run here instead of a few large ones, so fixed per-call costs
// dominate.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "layers.hpp"
#include "scenario/generator.hpp"
#include "sentinel/config.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tetra;

namespace {

constexpr int kMonitors = 10;
const Duration kStreamRun = Duration::sec(60);

/// The monitored topologies are ScenarioGenerator seeds 1..kMonitors on
/// every run; the workload seed drives the substrate runs of each. Drawing
/// the topologies from the workload seed as well would make every metric
/// mostly a function of which topologies a seed happened to pick.
constexpr std::uint64_t kFirstGeneratorSeed = 1;

std::vector<MonitorInput> generate(const Options& options,
                                   const sentinel::SentinelConfig& config,
                                   SpanLog* log) {
  scenario::GeneratorOptions generator_options;
  generator_options.run_duration = kStreamRun;
  const scenario::ScenarioGenerator generator(generator_options);
  std::vector<MonitorInput> monitors;
  for (int m = 0; m < kMonitors; ++m) {
    scenario::ScenarioSpec spec =
        generator.generate(kFirstGeneratorSeed + static_cast<std::uint64_t>(m))
            .spec;
    spec.seed = derive_seed(options.seed, static_cast<std::uint64_t>(m));
    trace::EventVector baseline = simulate(spec, 0, log);
    const trace::EventVector live = simulate(spec, 1, log);
    monitors.push_back(monitor_input(std::move(baseline), live, config));
  }
  return monitors;
}

/// All monitors once, in order. Each monitor's stream is its own unit of
/// the end-to-end metrics: the monitors differ in work, and a stream's
/// fraction of a second resolves the host's slow spells finer than the
/// whole pass does.
struct StreamPass {
  StreamStats stats;
  std::vector<PassSample> monitors;
};

StreamPass run_pass(const std::vector<MonitorInput>& monitors,
                    const sentinel::SentinelConfig& config, SpanLog* log,
                    bool decompose, Outcome& outcome) {
  StreamPass pass;
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    const StreamStats stats =
        run_monitor(monitors[m], config, log, decompose, outcome);
    pass.monitors.push_back(PassSample{
        .unit = m,
        .wall_ms = stats.feed_ms,
        .events = static_cast<double>(monitors[m].live_events),
        .event_ms = stats.feed_ms,
        .answers = static_cast<double>(stats.windows),
        .answer_ms = stats.feed_ms,
        .call_ms = stats.window_ms});
    pass.stats.windows += stats.windows;
    pass.stats.alarms += stats.alarms;
    pass.stats.skipped_empty += stats.skipped_empty;
    pass.stats.checks += stats.checks;
    pass.stats.feed_ms += stats.feed_ms;
    pass.stats.loop_ms += stats.loop_ms;
    pass.stats.verdict_hash =
        fnv1a(pass.stats.verdict_hash, std::to_string(stats.verdict_hash));
  }
  return pass;
}

}  // namespace

Outcome run_sentinel_live(const Options& options) {
  Outcome outcome;
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  const sentinel::SentinelConfig config;

  // -- set-up: simulate every monitor's baseline and live run -------------
  const std::size_t setup_mark = spans.mark();
  std::vector<double> setup_s;
  std::vector<MonitorInput> monitors;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const auto t0 = Clock::now();
    std::vector<MonitorInput> fresh = generate(options, config, log);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (repeat > 0) {
      bool same = fresh.size() == monitors.size();
      for (std::size_t m = 0; same && m < fresh.size(); ++m) {
        same = fresh[m].baseline == monitors[m].baseline &&
               fresh[m].batches == monitors[m].batches;
      }
      outcome.check(same, "set-up is not deterministic");
    }
    monitors = std::move(fresh);
  }
  const SpanTotals scenario_totals = spans.totals(setup_mark, spans.mark());

  // -- measured phase: every feed() call; one warm-up pass first ----------
  // The false-alarm count is a property of the stream, not an operation
  // failure: it must repeat exactly, pass after pass.
  reset_peak_rss();
  Outcome warm_up;  // the same windows are counted by the measured passes
  const StreamStats reference =
      run_pass(monitors, config, nullptr, false, warm_up).stats;
  for (const std::string& problem : warm_up.problems) outcome.check(false, problem);
  std::printf("sentinel_live: %d monitors, %zu windows, %zu alarmed "
              "(false-alarm share %.4f)\n",
              kMonitors, reference.windows, reference.alarms,
              reference.windows > 0 ? static_cast<double>(reference.alarms) /
                                          static_cast<double>(reference.windows)
                                    : 0.0);
  const double budget_ms = options.seconds * 1e3;
  // The end-to-end metrics count the time spent in feed().
  std::vector<PassSample> passes;
  std::vector<double> feed_ms, loop_ms;
  const auto measure = [&](const StreamPass& pass) {
    outcome.check(pass.stats.windows == reference.windows &&
                      pass.stats.alarms == reference.alarms &&
                      pass.stats.verdict_hash == reference.verdict_hash,
                  "window verdicts changed between passes");
    feed_ms.push_back(pass.stats.feed_ms);
    loop_ms.push_back(pass.stats.loop_ms);
    passes.insert(passes.end(), pass.monitors.begin(), pass.monitors.end());
  };

  if (!options.trace) {
    const auto start = Clock::now();
    while (!enough_calls(passes) ||
           ms_between(start, Clock::now()) < budget_ms) {
      measure(run_pass(monitors, config, nullptr, false, outcome));
    }
    std::printf("sentinel_live: %zu passes, metrics from the fastest %zu "
                "monitor streams of %zu\n",
                feed_ms.size(), fastest_passes(passes).size(), passes.size());
    outcome.end_to_end(setup_s, passes);
    return outcome;
  }

  // -- traced run -----------------------------------------------------------
  LayerReport report;
  report.scenario = scenario_totals;

  // The trace layer on the baselines a deployment reads from files.
  std::vector<const trace::EventVector*> baselines;
  for (const MonitorInput& monitor : monitors) baselines.push_back(&monitor.baseline);
  std::size_t mark = spans.mark();
  report.sweep = codec_sweep(baselines, options.work_dir + "/sweep", log, outcome);
  report.trace = spans.totals(mark, spans.mark());

  // Untraced and traced passes alternate, so the difference between them
  // is the tracing overhead; in a traced pass every closed window is
  // replayed layer by layer.
  mark = spans.mark();
  std::vector<double> traced_feed_ms;
  const auto traced_start = Clock::now();
  while (traced_feed_ms.empty() ||
         ms_between(traced_start, Clock::now()) < budget_ms) {
    measure(run_pass(monitors, config, nullptr, false, outcome));
    Outcome replay;  // windows were already counted as operations above
    const StreamPass pass = run_pass(monitors, config, log, true, replay);
    for (const std::string& problem : replay.problems) outcome.check(false, problem);
    outcome.check(pass.stats.verdict_hash == reference.verdict_hash,
                  "traced window verdicts differ from untraced ones");
    traced_feed_ms.push_back(pass.stats.feed_ms);
    report.stream = pass.stats;
  }
  const SpanTotals traced = spans.totals(mark, spans.mark());
  report.core = traced;
  report.sentinel = traced;
  const SpanLog::Totals query = span_totals(traced, "api.model");
  report.api_ingest_ns_per_event = per_item_ns(traced, "api.ingest");
  report.api_model_ms = query.total_ms / static_cast<double>(std::max<std::size_t>(query.count, 1));
  report.api_session_self_ms =
      (query.total_ms - core_replay_ms(traced)) /
      static_cast<double>(std::max<std::size_t>(query.count, 1));
  // analyze plus the stream residual add up to the feed() calls; what the
  // untraced batch loops spend outside feed() is the benchmark's own
  // batch copying.
  double feed_total = 0.0, loop_total = 0.0;
  for (std::size_t i = 0; i < feed_ms.size(); ++i) {
    feed_total += feed_ms[i];
    loop_total += loop_ms[i];
  }
  report.accounted_share = feed_total / loop_total;
  report.tracing_overhead_pct =
      (median(traced_feed_ms) / median(feed_ms) - 1.0) * 100.0;

  // Baseline models: their size, and the predict layer replaying each.
  predict::PredictionConfig base;
  base.seed = options.seed;
  base.horizon = kStreamRun;
  const std::vector<predict::WhatIfCandidate> candidates = whatif_grid({}, {});
  mark = spans.mark();
  for (const MonitorInput& monitor : monitors) {
    api::SynthesisSession session(config.synthesis);
    session.ingest(monitor.baseline, {.trace_id = "baseline", .mode = ""});
    const api::Result<core::TimingModel> model = session.model();
    outcome.check(model.ok(), "baseline model did not synthesize");
    if (!model.ok()) continue;
    report.counts.add(model.value());
    Outcome replay;  // a generated topology may have no complete chain
    replay_whatif(model.value().dag, base, candidates, log, replay);
  }
  report.predict = spans.totals(mark, spans.mark());

  report.spans = spans.mark();
  emit_layer_metrics(report, outcome);
  spans.write(options.spans_out, "{\"workload\": \"sentinel_live\", \"seed\": " +
                                     std::to_string(options.seed) + "}");
  return outcome;
}

}  // namespace perfbench
