// SynthesisSession: the streaming synthesis API (paper §V, Fig. 2).
//
// Traces arrive as many segments across runs and modes; a session accepts
// them incrementally and serves models at any point:
//
//   api::SynthesisSession session(api::SynthesisConfig().threads(4));
//   session.ingest(run1_events, {.trace_id = "run-1"});
//   session.ingest_file("run2.jsonl", {.trace_id = "run-2"});
//   auto model = session.model();            // synthesizes run-1 + run-2
//   session.ingest(more_events, {.trace_id = "run-1"});
//   model = session.model();                 // re-synthesizes ONLY run-1
//
// Every trace id owns one core::TraceIndex. Ingest decodes a segment into
// trace::EventColumns and queues it, so ingest stays O(segment) and does
// no index work; a query of a dirty trace appends the queued segments, in
// ingestion order, to the trace's index and runs core::synthesize over
// it, and a clean trace is served from its cached model. Distinct trace
// ids are synthesized independently — in parallel on a small worker pool
// when config.threads(N) > 1 — and their DAGs merged: the segments of one
// id form one stream (§V option i), distinct ids are option (ii). Results
// carry typed api::Error diagnostics instead of bare exceptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/result.hpp"
#include "core/extract.hpp"
#include "core/model_synthesis.hpp"
#include "predict/model_simulator.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::api {

/// Per-ingest options. An empty trace_id opens a fresh auto-named trace
/// ("trace-<n>"): the right default when each ingest is one run.
/// Segments of the same run/mode should share an id.
struct IngestOptions {
  std::string trace_id;
  std::string mode;  ///< operating-mode tag; "" = "nominal"
};

class SynthesisSession {
 public:
  SynthesisSession() = default;
  explicit SynthesisSession(SynthesisConfig config)
      : config_(std::move(config)) {}

  // -- ingestion ----------------------------------------------------------

  /// Adds one event segment. Unsorted segments are sorted stably by time
  /// on ingest (and flagged in the returned SegmentInfo); synthesis is
  /// deferred until a model query, so ingest cost is O(segment).
  Result<SegmentInfo> ingest(trace::EventColumns columns,
                             const IngestOptions& options = {});

  /// Same for heap events, packed into columns.
  Result<SegmentInfo> ingest(const trace::EventVector& events,
                             const IngestOptions& options = {});

  /// Reads a trace file into columns (trace::read_trace_file: .ttb traces
  /// are detected by magic, everything else decodes as JSONL) and ingests
  /// them. The default trace id is the path itself.
  Result<SegmentInfo> ingest_file(const std::string& path,
                                  const IngestOptions& options = {});

  // -- queries ------------------------------------------------------------

  /// The combined model over everything ingested so far: the DAGs of
  /// every trace merged. Only traces dirtied since the last query are
  /// re-synthesized; node_callbacks concatenates the per-trace lists.
  Result<core::TimingModel> model();

  /// Per-mode models (§V option iv): per-trace DAGs merged into the mode
  /// each trace was tagged with.
  Result<core::MultiModeDag> multi_mode_model();

  /// The model of one logical trace (its segments merged by time).
  Result<core::TimingModel> trace_model(const std::string& trace_id);
  /// trace_model() without the copy: the session's cached model, valid
  /// until the session next ingests, clears or is destroyed.
  Result<const core::TimingModel*> cached_trace_model(
      const std::string& trace_id);

  /// The chronologically merged rows of one trace (a copy; ties keep
  /// ingestion order).
  Result<trace::EventColumns> merged_columns(const std::string& trace_id) const;
  /// The same stream as heap events.
  Result<trace::EventVector> merged_events(const std::string& trace_id) const;

  /// Replays the session's combined model (predict::ModelSimulator) and
  /// returns predicted per-chain latency distributions — what-if queries
  /// answered from cached models, with no substrate re-run. Seed, horizon
  /// and the what-if knobs come from `config`; synthesis errors pass
  /// through unchanged.
  Result<predict::PredictionResult> predict(
      const predict::PredictionConfig& config = {});

  /// Frees the events of one trace while keeping its cached model, so
  /// long-lived sessions over heavy trace volume stay bounded in memory.
  /// Synthesizes the trace first if it is still dirty. The trace is
  /// sealed afterwards: further ingests into it are rejected. Returns the
  /// number of events freed.
  Result<std::size_t> release_events(const std::string& trace_id);

  // -- introspection ------------------------------------------------------

  const SynthesisConfig& config() const { return config_; }
  std::size_t segment_count() const { return segments_.size(); }
  std::size_t trace_count() const { return traces_.size(); }
  std::size_t event_count() const { return event_count_; }
  std::vector<std::string> trace_ids() const;
  /// Ingestion diagnostics for every segment, in ingestion order.
  const std::vector<SegmentInfo>& segments() const { return segments_; }

  /// Drops all ingested data and cached models; the config is kept.
  void clear();

 private:
  struct TraceState {
    std::string id;
    std::string mode;
    std::vector<trace::EventColumns> pending;  ///< sorted, not yet indexed
    core::TraceIndex index;
    core::TimingModel model;  ///< cache, valid when !dirty
    bool dirty = true;
    bool sealed = false;  ///< events released; model cached, no re-ingest
  };

  TraceState& trace_for(const IngestOptions& options);
  /// The trace, synthesized if dirty; or UnknownTrace / SynthesisFailed.
  Result<TraceState*> synthesized(const std::string& trace_id);
  /// Synthesizes every dirty trace (worker pool when threads > 1).
  /// Returns an error naming the first failing trace, if any.
  Error synthesize_dirty();
  /// Appends the trace's queued segments, in ingestion order, to its
  /// index and runs core::synthesize over it. `span_parent` anchors the
  /// "synth.trace" telemetry span under the caller's open span even on
  /// pool threads (whose RAII span stacks start empty).
  static void synthesize_trace(TraceState& trace,
                               const SynthesisConfig& config,
                               std::uint64_t span_parent);

  SynthesisConfig config_;
  std::vector<TraceState> traces_;                ///< ingestion order
  std::map<std::string, std::size_t> trace_index_;
  std::vector<SegmentInfo> segments_;
  std::size_t event_count_ = 0;
  std::size_t auto_trace_counter_ = 0;
};

}  // namespace tetra::api
