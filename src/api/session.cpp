#include "api/session.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "overhead/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/ttb.hpp"

namespace tetra::api {

namespace {

Error make_error(ErrorCode code, std::string message, std::string context) {
  return Error{code, std::move(message), std::move(context)};
}

struct SessionMetrics {
  telemetry::Counter& segments = telemetry::MetricsRegistry::global().counter(
      "session.segments_ingested");
  telemetry::Counter& events = telemetry::MetricsRegistry::global().counter(
      "session.events_ingested");
  telemetry::Counter& cache_hits =
      telemetry::MetricsRegistry::global().counter("session.cache_hits");
  telemetry::Counter& dirty_rebuilds =
      telemetry::MetricsRegistry::global().counter("session.dirty_rebuilds");

  static SessionMetrics& get() {
    static SessionMetrics metrics;
    return metrics;
  }
};

}  // namespace

SynthesisSession::TraceState& SynthesisSession::trace_for(
    const IngestOptions& options) {
  std::string id = options.trace_id;
  if (id.empty()) {
    // Auto-named traces must always be fresh — skip over any explicit
    // user id that happens to look like "trace-<n>".
    do {
      id = "trace-" + std::to_string(auto_trace_counter_++);
    } while (trace_index_.count(id) > 0);
  }
  auto it = trace_index_.find(id);
  if (it == trace_index_.end()) {
    it = trace_index_.emplace(id, traces_.size()).first;
    TraceState state;
    state.id = id;
    state.mode = options.mode;
    traces_.push_back(std::move(state));
  }
  return traces_[it->second];
}

Result<SegmentInfo> SynthesisSession::ingest(const trace::EventVector& events,
                                             const IngestOptions& options) {
  return ingest(trace::EventColumns(events), options);
}

Result<SegmentInfo> SynthesisSession::ingest(trace::EventColumns columns,
                                             const IngestOptions& options) {
  const bool arrived_sorted = trace::sort_by_time(columns);
  TraceState& trace = trace_for(options);
  if (trace.sealed) {
    return make_error(ErrorCode::InvalidArgument,
                      "trace events were released; ingest under a new trace id",
                      trace.id);
  }
  if (!options.mode.empty()) {
    if (!trace.mode.empty() && trace.mode != options.mode) {
      return make_error(ErrorCode::InvalidArgument,
                        "segment mode '" + options.mode +
                            "' conflicts with the trace's mode '" +
                            trace.mode + "'",
                        trace.id);
    }
    trace.mode = options.mode;
  }

  SegmentInfo info;
  info.id = segments_.size();
  info.trace_id = trace.id;
  info.mode = trace.mode;
  info.source = "events";
  info.event_count = columns.size();
  info.arrived_sorted = arrived_sorted;

  event_count_ += columns.size();
  SessionMetrics::get().segments.inc();
  SessionMetrics::get().events.add(columns.size());
  trace.pending.push_back(std::move(columns));
  trace.dirty = true;
  segments_.push_back(info);
  return info;
}

Result<SegmentInfo> SynthesisSession::ingest_file(const std::string& path,
                                                  const IngestOptions& options) {
  trace::EventColumns columns;
  try {
    columns = trace::read_trace_file(path);
  } catch (const std::exception& e) {
    return make_error(ErrorCode::Io, e.what(), path);
  }
  IngestOptions resolved = options;
  if (resolved.trace_id.empty()) resolved.trace_id = path;
  Result<SegmentInfo> result = ingest(std::move(columns), resolved);
  if (result.ok()) {
    segments_.back().source = path;
    return segments_.back();
  }
  return result;
}

void SynthesisSession::synthesize_trace(TraceState& trace,
                                        const SynthesisConfig& config,
                                        std::uint64_t span_parent) {
  telemetry::ScopedSpan span("synth.trace", span_parent, 0);
  {
    telemetry::ScopedSpan merge_span("synth.merge");
    for (trace::EventColumns& segment : trace.pending) {
      trace.index.append(std::move(segment));
    }
    trace.pending.clear();
    merge_span.set_items(trace.index.size());
  }
  span.set_items(trace.index.size());
  // Overhead compensation is resolved against the index: an explicit
  // probe-cost hint wins, otherwise the per-hit cost is estimated from the
  // trace itself (zero for probe-free traces, which makes compensation a
  // no-op).
  core::SynthesisOptions options = config.core_options();
  Duration& per_hit = options.extract.compensate_per_hit;
  if (config.compensate_overhead() && per_hit == Duration::zero()) {
    per_hit = config.probe_cost_hint() > Duration::zero()
                  ? config.probe_cost_hint()
                  : overhead::estimate_probe_cost(trace.index).per_hit;
  }
  trace.model = core::synthesize(trace.index, options);
  trace.dirty = false;
}

Error SynthesisSession::synthesize_dirty() {
  std::vector<TraceState*> dirty;
  for (auto& trace : traces_) {
    if (trace.dirty) dirty.push_back(&trace);
  }
  SessionMetrics::get().cache_hits.add(traces_.size() - dirty.size());
  if (dirty.empty()) return {};
  SessionMetrics::get().dirty_rebuilds.add(dirty.size());

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(config_.threads()),
                            dirty.size());
  std::vector<std::string> failures(dirty.size());
  const std::uint64_t span_parent = telemetry::ScopedSpan::current_id();

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < dirty.size();
         i = next.fetch_add(1)) {
      try {
        synthesize_trace(*dirty[i], config_, span_parent);
      } catch (const std::exception& e) {
        failures[i] = e.what();
      } catch (...) {
        failures[i] = "unknown synthesis failure";
      }
    }
  };
  if (workers <= 1) {
    worker();  // inline, on the calling thread
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (!failures[i].empty()) {
      return make_error(ErrorCode::SynthesisFailed, failures[i],
                        dirty[i]->id);
    }
  }
  return {};
}

Result<core::TimingModel> SynthesisSession::model() {
  if (segments_.empty()) {
    return make_error(ErrorCode::EmptySession,
                      "no events ingested before model()", "");
  }
  telemetry::ScopedSpan model_span("session.model", event_count_);
  if (Error error = synthesize_dirty(); error.code != ErrorCode::None) {
    return error;
  }
  if (traces_.size() == 1) return traces_[0].model;

  core::TimingModel combined;
  for (const TraceState& trace : traces_) {
    combined.dag.merge(trace.model.dag);
    combined.node_callbacks.insert(combined.node_callbacks.end(),
                                   trace.model.node_callbacks.begin(),
                                   trace.model.node_callbacks.end());
  }
  return combined;
}

Result<predict::PredictionResult> SynthesisSession::predict(
    const predict::PredictionConfig& config) {
  Result<core::TimingModel> model_result = model();
  if (!model_result.ok()) return model_result.error();
  // The replay only reads the DAG; the model (incl. its cache) stays put.
  return predict::ModelSimulator(model_result.value().dag, config).predict();
}

Result<core::MultiModeDag> SynthesisSession::multi_mode_model() {
  if (segments_.empty()) {
    return make_error(ErrorCode::EmptySession,
                      "no events ingested before multi_mode_model()", "");
  }
  if (Error error = synthesize_dirty(); error.code != ErrorCode::None) {
    return error;
  }
  core::MultiModeDag multi;
  for (const TraceState& trace : traces_) {
    // Traces ingested without a mode tag run in the nominal mode.
    multi.merge_into_mode(trace.mode.empty() ? "nominal" : trace.mode,
                          trace.model.dag);
  }
  return multi;
}

Result<SynthesisSession::TraceState*> SynthesisSession::synthesized(
    const std::string& trace_id) {
  auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) {
    return make_error(ErrorCode::UnknownTrace, "no such trace in session",
                      trace_id);
  }
  TraceState& trace = traces_[it->second];
  if (trace.dirty) {
    try {
      synthesize_trace(trace, config_, telemetry::ScopedSpan::current_id());
    } catch (const std::exception& e) {
      return make_error(ErrorCode::SynthesisFailed, e.what(), trace_id);
    }
  }
  return &trace;
}

Result<core::TimingModel> SynthesisSession::trace_model(
    const std::string& trace_id) {
  Result<const core::TimingModel*> model = cached_trace_model(trace_id);
  if (!model.ok()) return model.error();
  return *model.value();
}

Result<const core::TimingModel*> SynthesisSession::cached_trace_model(
    const std::string& trace_id) {
  Result<TraceState*> trace = synthesized(trace_id);
  if (!trace.ok()) return trace.error();
  return &(*trace)->model;
}

Result<trace::EventColumns> SynthesisSession::merged_columns(
    const std::string& trace_id) const {
  auto it = trace_index_.find(trace_id);
  if (it == trace_index_.end()) {
    return make_error(ErrorCode::UnknownTrace, "no such trace in session",
                      trace_id);
  }
  const TraceState& trace = traces_[it->second];
  if (trace.sealed) {
    return make_error(ErrorCode::InvalidArgument,
                      "trace events were released", trace_id);
  }
  // Rows in ingestion order; the stable sort restores (time, ingestion)
  // order, which is the k-way merge of the time-sorted segments.
  trace::EventColumns merged;
  merged.append(trace.index.view());
  for (const trace::EventColumns& segment : trace.pending) {
    merged.append(segment.view());
  }
  trace::sort_by_time(merged);
  return merged;
}

Result<trace::EventVector> SynthesisSession::merged_events(
    const std::string& trace_id) const {
  Result<trace::EventColumns> merged = merged_columns(trace_id);
  if (!merged.ok()) return merged.error();
  return trace::materialize(merged.value().view());
}

Result<std::size_t> SynthesisSession::release_events(
    const std::string& trace_id) {
  Result<TraceState*> trace = synthesized(trace_id);
  if (!trace.ok()) return trace.error();
  // Synthesis drained every pending segment into the index.
  const std::size_t freed = (*trace)->index.size();
  (*trace)->index = core::TraceIndex();
  (*trace)->sealed = true;
  return freed;
}

std::vector<std::string> SynthesisSession::trace_ids() const {
  std::vector<std::string> ids;
  ids.reserve(traces_.size());
  for (const auto& trace : traces_) ids.push_back(trace.id);
  return ids;
}

void SynthesisSession::clear() {
  traces_.clear();
  trace_index_.clear();
  segments_.clear();
  event_count_ = 0;
  auto_trace_counter_ = 0;
}

}  // namespace tetra::api
