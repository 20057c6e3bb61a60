#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>

#include "api/session.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"
#include "core/extract.hpp"
#include "ebpf/tracers.hpp"
#include "ros2/context.hpp"
#include "scenario/runner.hpp"
#include "sentinel/engine.hpp"
#include "sentinel/stream.hpp"
#include "support/string_utils.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace perfbench {

using namespace tetra;

trace::EventVector simulate(const scenario::ScenarioSpec& spec,
                            std::uint64_t run_index, SpanLog* log) {
  SpanLog::Scope span(log, "scenario.simulate");
  ros2::Context::Config config;
  config.num_cpus = spec.num_cpus;
  config.seed = derive_seed(spec.seed, run_index);
  ros2::Context ctx(config);
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  // Owns the external input writers, which must outlive the run.
  const scenario::ScenarioInstance instance =
      scenario::ScenarioRunner::instantiate(ctx, spec);
  std::vector<trace::EventVector> parts;
  parts.push_back(suite.stop_init());
  suite.start_runtime();
  ctx.run_for(spec.run_duration);
  parts.push_back(suite.stop_runtime());
  trace::EventVector merged = trace::merge_sorted(parts);
  span.set_items(merged.size());
  return merged;
}

std::vector<trace::EventVector> cut(const trace::EventVector& events,
                                    int parts) {
  std::vector<trace::EventVector> segments;
  const std::size_t n = events.size();
  for (int p = 0; p < parts; ++p) {
    const std::size_t lo = n * static_cast<std::size_t>(p) / parts;
    const std::size_t hi = n * static_cast<std::size_t>(p + 1) / parts;
    segments.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(lo),
                          events.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return segments;
}

CodecSweep codec_sweep(const std::vector<const trace::EventVector*>& segments,
                       const std::string& dir, SpanLog* log, Outcome& outcome) {
  std::filesystem::create_directories(dir);
  CodecSweep sweep;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const trace::EventVector& segment = *segments[i];
    const std::uint64_t n = segment.size();
    const std::string stem = dir + "/segment-" + std::to_string(i);
    const std::string jsonl_path = stem + ".jsonl";
    const std::string ttb_path = stem + ".ttb";
    {
      SpanLog::Scope span(log, "trace.jsonl_encode", n);
      trace::write_jsonl_file(jsonl_path, segment);
    }
    {
      SpanLog::Scope span(log, "trace.ttb_encode", n);
      trace::write_ttb_file(ttb_path, segment);
    }
    sweep.events += n;
    sweep.jsonl_bytes += std::filesystem::file_size(jsonl_path);
    sweep.ttb_bytes += std::filesystem::file_size(ttb_path);

    trace::EventVector from_jsonl;
    {
      SpanLog::Scope span(log, "trace.jsonl_decode", n);
      from_jsonl = trace::read_jsonl_file(jsonl_path);
    }
    trace::EventVector from_ttb;
    {
      std::optional<trace::TtbReader> reader;
      {
        SpanLog::Scope span(log, "trace.ttb_open", n);
        reader.emplace(ttb_path);
      }
      SpanLog::Scope span(log, "trace.ttb_materialize", n);
      from_ttb = reader->materialize();
    }
    outcome.check(from_jsonl == segment && from_ttb == segment,
                  "codec round trip changed segment " + std::to_string(i));
    std::filesystem::remove(jsonl_path);
    std::filesystem::remove(ttb_path);
  }
  return sweep;
}

core::TimingModel replay_synthesis(
    const std::vector<const trace::EventVector*>& segments,
    const api::SynthesisConfig& config, SpanLog* log) {
  core::TraceIndex index;
  {
    SpanLog::Scope span(log, "core.index_append");
    for (const trace::EventVector* segment : segments) index.append(*segment);
    span.set_items(index.size());
  }
  core::TimingModel model;
  {
    SpanLog::Scope span(log, "core.extract", index.size());
    model.node_callbacks =
        core::extract_all_nodes(index, config.core_options().extract);
  }
  {
    SpanLog::Scope span(log, "core.normalize");
    core::merge_worker_lists(model.node_callbacks);
    core::normalize_labels(model.node_callbacks);
  }
  {
    SpanLog::Scope span(log, "core.build_dag");
    model.dag = core::build_dag(model.node_callbacks, config.core_options().dag);
  }
  return model;
}

std::vector<predict::WhatIfCandidate> whatif_grid(
    const std::vector<double>& exec_scales, const std::vector<int>& cpu_counts) {
  std::vector<predict::WhatIfCandidate> grid(1);
  grid[0].name = "baseline";
  for (const double scale : exec_scales) {
    for (const int cpus : cpu_counts) {
      predict::WhatIfCandidate candidate;
      candidate.name = format("exec-x%.2f/cpus-%d", scale, cpus);
      candidate.global_exec_scale = scale;
      candidate.executors = predict::ExecutorMapping{};
      candidate.executors->num_cpus = cpus;
      grid.push_back(std::move(candidate));
    }
  }
  return grid;
}

void replay_whatif(const core::Dag& dag, const predict::PredictionConfig& base,
                   const std::vector<predict::WhatIfCandidate>& candidates,
                   SpanLog* log, Outcome& outcome) {
  for (const predict::WhatIfCandidate& candidate : candidates) {
    SpanLog::Scope span(log, "predict.replay");
    const predict::PredictionResult prediction =
        predict::ModelSimulator(dag,
                                predict::WhatIfExplorer::apply(base, candidate))
            .predict();
    span.set_items(prediction.activations);
    const double score = predict::WhatIfExplorer::score_ms(
        prediction, predict::Objective::WorstChainP99);
    outcome.check(std::isfinite(score), "what-if candidate " +
                                            candidate.name +
                                            " completed no chain");
  }
}

MonitorInput monitor_input(trace::EventVector baseline,
                           const trace::EventVector& live,
                           const sentinel::SentinelConfig& config) {
  MonitorInput input;
  input.baseline = std::move(baseline);
  input.live_events = live.size();
  if (live.empty()) return input;
  const TimePoint origin = live.front().time;
  const std::int64_t advance_ns = config.window_advance.count_ns();
  std::int64_t current = 0;
  trace::EventVector batch;
  for (const trace::TraceEvent& event : live) {
    const std::int64_t index = (event.time - origin).count_ns() / advance_ns;
    if (index != current && !batch.empty()) {
      input.batches.push_back(std::move(batch));
      batch.clear();
    }
    current = index;
    batch.push_back(event);
  }
  if (!batch.empty()) input.batches.push_back(std::move(batch));
  return input;
}

namespace {

/// The slice StreamSentinel evaluates for window [begin, end): the sticky
/// node table first, then the window's events, stable-sorted by time.
trace::EventVector window_slice(const trace::EventVector& stream,
                                const std::map<Pid, trace::TraceEvent>& nodes,
                                TimePoint begin, TimePoint end) {
  trace::EventVector slice;
  for (const auto& [pid, event] : nodes) slice.push_back(event);
  const auto lo = std::partition_point(
      stream.begin(), stream.end(),
      [&](const trace::TraceEvent& e) { return e.time < begin; });
  const auto hi = std::partition_point(
      lo, stream.end(), [&](const trace::TraceEvent& e) { return e.time < end; });
  for (auto it = lo; it != hi; ++it) {
    if (it->type != trace::EventType::RmwCreateNode) slice.push_back(*it);
  }
  trace::sort_by_time(slice);
  return slice;
}

}  // namespace

StreamStats run_monitor(const MonitorInput& input,
                        const sentinel::SentinelConfig& config, SpanLog* log,
                        bool decompose, Outcome& outcome) {
  StreamStats stats;
  sentinel::StreamSentinel stream(config);
  const bool ready = stream.ingest_baseline(input.baseline).ok() &&
                     stream.baseline_model().ok();
  outcome.check(ready, "sentinel baseline did not synthesize");
  if (!ready) return stats;

  // Decomposition state: a second engine over the same baseline, and the
  // stream as StreamSentinel buffers it (it never evicts here: the slices
  // only read [begin, end)).
  std::optional<sentinel::DriftEngine> replica;
  trace::EventVector seen;
  std::map<Pid, trace::TraceEvent> node_events;
  std::vector<core::Dag> window_dags;
  if (decompose) {
    replica.emplace(config);
    outcome.check(replica->ingest_baseline(input.baseline).ok() &&
                      replica->ensure_baseline().code == api::ErrorCode::None,
                  "replica baseline did not synthesize");
  }

  const auto loop_start = Clock::now();
  for (const trace::EventVector& batch : input.batches) {
    trace::EventVector argument = batch;
    const auto t0 = Clock::now();
    api::Result<std::vector<sentinel::WindowVerdict>> verdicts = [&] {
      SpanLog::Scope span(log, "sentinel.feed");
      auto result = stream.feed(std::move(argument));
      if (result.ok()) span.set_items(result.value().size());
      return result;
    }();
    const double ms = ms_between(t0, Clock::now());
    stats.feed_ms += ms;
    if (!verdicts.ok()) {
      outcome.operation(false, "feed() failed: " + verdicts.error().to_string());
      continue;
    }
    for (const sentinel::WindowVerdict& verdict : verdicts.value()) {
      outcome.operation(true, "");
      ++stats.windows;
      stats.alarms += verdict.alarmed ? 1 : 0;
      stats.checks += verdict.checks;
      stats.window_ms.push_back(ms);
      stats.verdict_hash =
          fnv1a(stats.verdict_hash, sentinel::window_verdict_to_json(verdict));
    }
    if (!decompose) continue;

    seen.insert(seen.end(), batch.begin(), batch.end());
    for (const trace::TraceEvent& event : batch) {
      if (event.type == trace::EventType::RmwCreateNode) {
        node_events[event.pid] = event;
      }
    }
    for (const sentinel::WindowVerdict& verdict : verdicts.value()) {
      const trace::EventVector slice =
          window_slice(seen, node_events, verdict.begin, verdict.end);
      {
        trace::EventVector copy = slice;
        SpanLog::Scope span(log, "sentinel.analyze", slice.size());
        const auto analysis = replica->analyze(std::move(copy));
        outcome.check(analysis.ok() &&
                          analysis.value().verdict.checks == verdict.checks,
                      "replayed analysis differs from window " +
                          std::to_string(verdict.index));
      }
      std::optional<api::Result<core::TimingModel>> model;
      {
        trace::EventVector copy = slice;
        SpanLog::Scope span(log, "sentinel.window_synth", slice.size());
        api::SynthesisSession session(config.synthesis);
        {
          SpanLog::Scope ingest(log, "api.ingest", slice.size());
          session.ingest(std::move(copy), {.trace_id = "window", .mode = ""});
        }
        SpanLog::Scope query(log, "api.model");
        model.emplace(session.model());
      }
      core::TimingModel replayed =
          replay_synthesis({&slice}, config.synthesis, log);
      outcome.check(model->ok() && core::to_json(replayed.dag) ==
                                       core::to_json(model->value().dag),
                    "core replay DAG differs from the session's in window " +
                        std::to_string(verdict.index));
      window_dags.push_back(std::move(replayed.dag));
    }
  }
  stats.loop_ms = ms_between(loop_start, Clock::now());
  if (decompose) {
    core::Dag merged;
    {
      SpanLog::Scope span(log, "core.dag_merge", window_dags.size());
      for (const core::Dag& dag : window_dags) merged.merge(dag);
    }
    SpanLog::Scope span(log, "core.export");
    outcome.check(!core::to_json(merged).empty(), "empty stream model export");
  }
  stats.skipped_empty = stream.windows_skipped_empty();
  return stats;
}

void ModelCounts::add(const core::TimingModel& model) {
  nodes += model.node_callbacks.size();
  for (const core::CallbackList& list : model.node_callbacks) {
    callback_instances += list.total_instances();
  }
  vertices += model.dag.vertex_count();
  edges += model.dag.edge_count();
}

double per_item_ns(const SpanTotals& totals, const std::string& name) {
  const SpanLog::Totals t = span_totals(totals, name);
  return t.items > 0 ? t.total_ms * 1e6 / static_cast<double>(t.items) : 0.0;
}

namespace {

double per_call_ms(const SpanTotals& totals, const std::string& name) {
  const SpanLog::Totals t = span_totals(totals, name);
  return t.count > 0 ? t.total_ms / static_cast<double>(t.count) : 0.0;
}

double items_per_s(const SpanTotals& totals, const std::string& name) {
  const SpanLog::Totals t = span_totals(totals, name);
  return t.total_ms > 0.0 ? static_cast<double>(t.items) / (t.total_ms / 1e3)
                          : 0.0;
}

}  // namespace

void emit_layer_metrics(const LayerReport& r, Outcome& outcome) {
  const auto count = [&](const char* name, std::size_t value) {
    outcome.metric(name, static_cast<double>(value), "count");
  };

  for (const char* name : {"trace.jsonl_decode", "trace.jsonl_encode",
                           "trace.ttb_open", "trace.ttb_materialize",
                           "trace.ttb_encode"}) {
    outcome.metric(std::string(name) + "_ns_per_event",
                   per_item_ns(r.trace, name), "ns");
  }
  const double events =
      static_cast<double>(std::max<std::uint64_t>(r.sweep.events, 1));
  outcome.metric("trace.jsonl_bytes_per_event",
                 static_cast<double>(r.sweep.jsonl_bytes) / events, "B");
  outcome.metric("trace.ttb_bytes_per_event",
                 static_cast<double>(r.sweep.ttb_bytes) / events, "B");

  outcome.metric("core.index_append_ns_per_event",
                 per_item_ns(r.core, "core.index_append"), "ns");
  outcome.metric("core.extract_ns_per_event",
                 per_item_ns(r.core, "core.extract"), "ns");
  outcome.metric("core.normalize_us", per_call_ms(r.core, "core.normalize") * 1e3,
                 "us");
  outcome.metric("core.build_dag_us", per_call_ms(r.core, "core.build_dag") * 1e3,
                 "us");
  outcome.metric("core.dag_merge_us", per_call_ms(r.core, "core.dag_merge") * 1e3,
                 "us");
  outcome.metric("core.export_us", per_call_ms(r.core, "core.export") * 1e3, "us");
  count("core.nodes", r.counts.nodes);
  count("core.callback_instances", r.counts.callback_instances);
  count("core.vertices", r.counts.vertices);
  count("core.edges", r.counts.edges);

  outcome.metric("api.ingest_ns_per_event", r.api_ingest_ns_per_event, "ns");
  outcome.metric("api.model_ms", r.api_model_ms, "ms");
  outcome.metric("api.session_self_ms", r.api_session_self_ms, "ms");

  outcome.metric("predict.replay_ms_per_candidate",
                 per_call_ms(r.predict, "predict.replay"), "ms");
  outcome.metric("predict.activations_per_s",
                 items_per_s(r.predict, "predict.replay"), "1/s");

  const SpanLog::Totals feed = span_totals(r.sentinel, "sentinel.feed");
  const double feed_per_window =
      feed.total_ms / static_cast<double>(std::max<std::uint64_t>(feed.items, 1));
  const double analyze_per_window = per_call_ms(r.sentinel, "sentinel.analyze");
  outcome.metric("sentinel.feed_ms_per_window", feed_per_window, "ms");
  outcome.metric("sentinel.analyze_ms_per_window", analyze_per_window, "ms");
  outcome.metric("sentinel.window_synth_ms",
                 per_call_ms(r.sentinel, "sentinel.window_synth"), "ms");
  outcome.metric("sentinel.stream_self_ms_per_window",
                 feed_per_window - analyze_per_window, "ms");
  count("sentinel.windows", r.stream.windows);
  count("sentinel.windows_skipped_empty", r.stream.skipped_empty);
  count("sentinel.checks", r.stream.checks);
  count("sentinel.alarms", r.stream.alarms);

  outcome.metric("scenario.sim_events_per_s",
                 items_per_s(r.scenario, "scenario.simulate"), "1/s");

  outcome.metric("bench.accounted_share", r.accounted_share, "ratio");
  outcome.metric("bench.tracing_overhead_pct", r.tracing_overhead_pct, "%");
  count("bench.spans", r.spans);
}

double core_replay_ms(const SpanTotals& totals) {
  double ms = 0.0;
  for (const char* name : {"core.index_append", "core.extract",
                           "core.normalize", "core.build_dag"}) {
    ms += span_totals(totals, name).total_ms;
  }
  return ms;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  if (hash == 0) hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
