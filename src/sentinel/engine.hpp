// DriftEngine: the one-shot sentinel, and the comparison core the
// streaming StreamSentinel (sentinel/stream.hpp) builds on. It owns the
// baseline (ingested through api::SynthesisSession and cached as model +
// exec samples + chain envelopes) and evaluates one window of events
// against it, reporting both the per-window verdict (one-shot
// thresholds) and the raw per-axis observations the streaming layer
// feeds into its sequential accumulators.
//
//   sentinel::DriftEngine engine(config);
//   engine.ingest_baseline_file("baseline.jsonl");
//   auto analysis = engine.analyze_file("window.jsonl");
//   if (analysis.ok() && analysis->verdict.drifted)
//     alert(verdict_to_json(analysis->verdict));
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/latency.hpp"
#include "api/result.hpp"
#include "api/session.hpp"
#include "core/model_synthesis.hpp"
#include "sentinel/config.hpp"
#include "sentinel/verdict.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::sentinel {

/// One raw measurement on one drift axis, before any thresholding. The
/// streaming layer accumulates these across windows; `finding` is set iff
/// the observation crossed the one-shot (per-window) thresholds.
struct AxisObservation {
  DriftKind kind = DriftKind::VertexAdded;
  std::string subject;
  /// Axis magnitude: KS statistic (exec), relative delta (period,
  /// latency), miss fraction (deadline), 1.0 (structural).
  double value = 0.0;
  /// KS p-value for the exec axis; 1.0 elsewhere.
  double p_value = 1.0;
  std::size_t n_baseline = 0;  ///< samples on the baseline side (exec)
  std::size_t n_window = 0;    ///< samples on the window side (exec)
  bool finding = false;        ///< crossed the per-window thresholds
  std::string detail;          ///< set when finding is true
};

struct WindowAnalysis {
  DriftVerdict verdict;  ///< one-shot semantics, findings sorted
  std::vector<AxisObservation> observations;
};

class DriftEngine {
 public:
  explicit DriftEngine(SentinelConfig config);

  // -- baseline -----------------------------------------------------------

  api::Result<api::SegmentInfo> ingest_baseline(trace::EventColumns events);
  /// Packs heap events and ingests them.
  api::Result<api::SegmentInfo> ingest_baseline(
      const trace::EventVector& events);
  api::Result<api::SegmentInfo> ingest_baseline_file(const std::string& path);
  api::Result<core::TimingModel> baseline_model();
  /// Synthesizes the baseline cache if dirty; InvalidArgument when no
  /// baseline was ingested.
  api::Error ensure_baseline();
  /// Drops the baseline entirely (auto-refresh re-ingests afterwards).
  void reset_baseline();

  // -- window evaluation --------------------------------------------------

  /// Synthesizes `events` as one window (in an ephemeral session, so
  /// long streams do not accumulate per-window state) and compares it
  /// against the baseline. Per-window work scales with the window: the
  /// baseline side of every comparison is prepared once, in
  /// ensure_baseline(). InvalidArgument when config.alpha lies outside
  /// (0, 1) or no baseline was ingested.
  api::Result<WindowAnalysis> analyze(trace::EventColumns events);
  /// Packs heap events and analyzes them.
  api::Result<WindowAnalysis> analyze(const trace::EventVector& events);
  /// Reads a JSONL or .ttb trace file and analyzes it as one window.
  api::Result<WindowAnalysis> analyze_file(const std::string& path);

  // -- introspection ------------------------------------------------------

  const SentinelConfig& config() const { return config_; }
  std::size_t windows_analyzed() const { return window_counter_; }

 private:
  struct BaselineChain {
    std::string key;                  ///< plain topic path, " -> " joined
    std::vector<std::string> topics;  ///< measure_chain_latency argument
    analysis::ChainLatencyResult latency;
  };
  /// (from, to, topic) of one DAG edge.
  using EdgeKey = std::tuple<std::string, std::string, std::string>;
  struct BaselineCache {
    bool valid = false;
    core::TimingModel model;
    std::size_t events = 0;
    /// Per-label raw execution-time samples (ns), ascending: the KS
    /// baseline side, sorted once instead of once per test.
    std::map<std::string, std::vector<double>> exec_samples;
    std::set<std::string> vertex_keys;
    std::set<EdgeKey> edge_keys;
    std::vector<BaselineChain> chains;
  };

  SentinelConfig config_;
  api::SynthesisSession session_;  ///< baseline segments only
  BaselineCache baseline_;
  std::size_t window_counter_ = 0;
};

}  // namespace tetra::sentinel
