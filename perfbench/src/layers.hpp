// Layer runners shared by every workload. Each one calls a layer's public
// functions directly, inside spans named after the layer, so a traced run
// can attribute time layer by layer:
//   scenario  simulate()          substrate runs that produce the inputs
//   trace     codec_sweep()       JSONL and .ttb encode/decode
//   core      replay_synthesis()  the calls SynthesisSession makes per trace
//   predict   replay_whatif()     one ModelSimulator replay per candidate
//   sentinel  run_monitor()       StreamSentinel fed in window-advance batches
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "common.hpp"
#include "core/model_synthesis.hpp"
#include "predict/what_if.hpp"
#include "scenario/spec.hpp"
#include "sentinel/config.hpp"
#include "trace/event.hpp"

namespace perfbench {

/// One traced run of `spec` on the simulation substrate (init and runtime
/// tracer output merged), without synthesis. Span: scenario.simulate.
tetra::trace::EventVector simulate(const tetra::scenario::ScenarioSpec& spec,
                                   std::uint64_t run_index, SpanLog* log);

/// Cuts a time-sorted trace into `parts` contiguous segments of equal
/// event count.
std::vector<tetra::trace::EventVector> cut(const tetra::trace::EventVector& events,
                                           int parts);

/// Writes every segment as JSONL and as .ttb under `dir`, then decodes each
/// file back. Spans: trace.{jsonl,ttb}_encode, trace.jsonl_decode,
/// trace.ttb_open, trace.ttb_materialize. Reports a problem when a decoded
/// segment differs from its source.
struct CodecSweep {
  std::uint64_t events = 0;
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t ttb_bytes = 0;
};
CodecSweep codec_sweep(const std::vector<const tetra::trace::EventVector*>& segments,
                       const std::string& dir, SpanLog* log, Outcome& outcome);

/// The per-trace synthesis SynthesisSession runs, called layer by layer:
/// TraceIndex::append per segment, extract_all_nodes, merge_worker_lists +
/// normalize_labels, build_dag. Spans: core.index_append, core.extract,
/// core.normalize, core.build_dag.
tetra::core::TimingModel replay_synthesis(
    const std::vector<const tetra::trace::EventVector*>& segments,
    const tetra::api::SynthesisConfig& config, SpanLog* log);

/// The what-if grid: the unmodified baseline plus every pair of a global
/// execution-time scale and a CPU count.
std::vector<tetra::predict::WhatIfCandidate> whatif_grid(
    const std::vector<double>& exec_scales, const std::vector<int>& cpu_counts);

/// Replays each candidate the way WhatIfExplorer::explore does, one
/// ModelSimulator::predict per candidate (span predict.replay, items =
/// activations). A candidate whose score is not finite (no chain
/// completed) is a correctness problem.
void replay_whatif(const tetra::core::Dag& dag,
                   const tetra::predict::PredictionConfig& base,
                   const std::vector<tetra::predict::WhatIfCandidate>& candidates,
                   SpanLog* log, Outcome& outcome);

/// One monitored stream: the baseline run and the live run cut into
/// batches of one window advance each.
struct MonitorInput {
  tetra::trace::EventVector baseline;
  std::vector<tetra::trace::EventVector> batches;
  std::uint64_t live_events = 0;
};
MonitorInput monitor_input(tetra::trace::EventVector baseline,
                           const tetra::trace::EventVector& live,
                           const tetra::sentinel::SentinelConfig& config);

struct StreamStats {
  std::size_t windows = 0;
  std::size_t alarms = 0;
  std::size_t skipped_empty = 0;
  std::size_t checks = 0;
  double feed_ms = 0.0;
  double loop_ms = 0.0;  ///< the whole batch loop, feed() calls included
  std::vector<double> window_ms;  ///< per closed window: its feed() call
  std::uint64_t verdict_hash = 0;
};

/// Feeds one monitor's live batches through StreamSentinel::feed (span
/// sentinel.feed, items = windows closed). Every window verdict is one
/// operation; it fails when feed() errors. With `decompose`, each closed
/// window's slice is rebuilt and replayed outside the feed() call:
/// DriftEngine::analyze (span sentinel.analyze), a session model() over
/// the slice (sentinel.window_synth > api.ingest, api.model) and the core
/// calls (replay_synthesis), whose DAG must match the session's byte for
/// byte; the window DAGs are then merged (core.dag_merge) and exported
/// (core.export).
StreamStats run_monitor(const MonitorInput& input,
                        const tetra::sentinel::SentinelConfig& config,
                        SpanLog* log, bool decompose, Outcome& outcome);

/// Size of the synthesized models a workload reports.
struct ModelCounts {
  std::size_t nodes = 0;
  std::size_t callback_instances = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  void add(const tetra::core::TimingModel& model);
};

using SpanTotals = std::map<std::string, SpanLog::Totals>;

/// Everything a traced run measured, by layer. Each span map covers the
/// range of spans that layer's metrics come from; the api.* values are
/// residuals the workload derives (a call minus the replayed layers below
/// it).
struct LayerReport {
  SpanTotals scenario;  ///< set-up
  SpanTotals trace;     ///< codec_sweep
  CodecSweep sweep;
  SpanTotals core;      ///< replay_synthesis + dag_merge + export
  ModelCounts counts;
  double api_ingest_ns_per_event = 0.0;
  double api_model_ms = 0.0;
  double api_session_self_ms = 0.0;
  SpanTotals predict;   ///< replay_whatif
  SpanTotals sentinel;  ///< run_monitor with decompose
  StreamStats stream;
  /// (named layer timings + residuals) / the measured phase.
  double accounted_share = 0.0;
  /// Traced over untraced measured-phase time, minus one, in percent.
  double tracing_overhead_pct = 0.0;
  std::size_t spans = 0;
};

/// Emits every per-layer metric, the same set on every workload.
void emit_layer_metrics(const LayerReport& report, Outcome& outcome);

/// Sum of the per-trace core spans (append, extract, normalize, build).
double core_replay_ms(const SpanTotals& totals);

/// Nanoseconds per work item of the spans called `name`.
double per_item_ns(const SpanTotals& totals, const std::string& name);

/// FNV-1a over `text`, folded into `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const std::string& text);

}  // namespace perfbench
