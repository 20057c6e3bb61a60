// SynthesisConfig: builder-style configuration of a SynthesisSession:
// the core::SynthesisOptions, the worker-pool size and tracer-overhead
// compensation. Which segments merge is not a knob: segments of one trace
// id form one stream (§V option i), distinct ids are merged as DAGs
// (option ii).
#pragma once

#include "core/model_synthesis.hpp"

namespace tetra::api {

class SynthesisConfig {
 public:
  SynthesisConfig() = default;

  // -- builder setters (chainable) ---------------------------------------
  /// Worker threads for per-trace synthesis. 1 = inline.
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
  int threads() const { return threads_; }
  bool compensate_overhead() const { return compensate_overhead_; }
  Duration probe_cost_hint() const { return probe_cost_hint_; }
  const core::SynthesisOptions& core_options() const { return core_; }

 private:
  int threads_ = 1;
  bool compensate_overhead_ = false;
  Duration probe_cost_hint_ = Duration::zero();
  core::SynthesisOptions core_;
};

}  // namespace tetra::api
