// SynthesisConfig: builder-style configuration of a SynthesisSession,
// subsuming the old core::SynthesisOptions plus the merge strategy and
// parallelism knobs that used to be implicit in which ModelSynthesizer
// method a caller picked.
#pragma once

#include <string_view>

#include "core/model_synthesis.hpp"

namespace tetra::api {

/// How models from separately-ingested traces combine (paper §V).
enum class MergeStrategy {
  /// Option (ii), the paper's experimental choice: synthesize a DAG per
  /// logical trace, merge the DAGs (vertex/edge union, statistics merged).
  /// A query after new ingests re-synthesizes only the traces they dirtied.
  MergeDags,
  /// Option (i): k-way merge every segment of every trace into one
  /// chronological stream, synthesize once. Only meaningful when segments
  /// share PIDs/callback ids (segments of one run).
  MergeTraces,
};

std::string_view to_string(MergeStrategy strategy);

class SynthesisConfig {
 public:
  SynthesisConfig() = default;

  // -- builder setters (chainable) ---------------------------------------
  SynthesisConfig& merge_strategy(MergeStrategy strategy) {
    merge_strategy_ = strategy;
    return *this;
  }
  /// Worker threads for per-trace synthesis under MergeDags. 1 = inline.
  SynthesisConfig& threads(int count) {
    threads_ = count < 1 ? 1 : count;
    return *this;
  }
  SynthesisConfig& split_service_per_caller(bool on) {
    core_.dag.split_service_per_caller = on;
    return *this;
  }
  SynthesisConfig& model_sync_with_and_junction(bool on) {
    core_.dag.model_sync_with_and_junction = on;
    return *this;
  }
  SynthesisConfig& mark_or_junctions(bool on) {
    core_.dag.mark_or_junctions = on;
    return *this;
  }
  /// Tracer-overhead compensation (src/overhead/): estimate the per-probe
  /// cost from each trace (or take probe_cost_hint) and subtract
  /// hit-count × cost from every instance's execution time before DAG
  /// annotation. Each synthesis of a trace re-estimates the cost from all
  /// of the trace's events so far.
  SynthesisConfig& compensate_overhead(bool on) {
    compensate_overhead_ = on;
    return *this;
  }
  /// Known per-probe-hit cost; zero (default) means estimate per trace.
  SynthesisConfig& probe_cost_hint(Duration per_hit) {
    probe_cost_hint_ = per_hit;
    return *this;
  }
  /// Full passthrough for callers that already hold core options.
  SynthesisConfig& core_options(const core::SynthesisOptions& options) {
    core_ = options;
    return *this;
  }

  // -- getters ------------------------------------------------------------
  MergeStrategy merge_strategy() const { return merge_strategy_; }
  int threads() const { return threads_; }
  bool compensate_overhead() const { return compensate_overhead_; }
  Duration probe_cost_hint() const { return probe_cost_hint_; }
  const core::SynthesisOptions& core_options() const { return core_; }

 private:
  MergeStrategy merge_strategy_ = MergeStrategy::MergeDags;
  int threads_ = 1;
  bool compensate_overhead_ = false;
  Duration probe_cost_hint_ = Duration::zero();
  core::SynthesisOptions core_;
};

}  // namespace tetra::api
