// Instantiates a ScenarioSpec on the simulation substrate and drives the
// full trace->model cycle: build the application in a fresh Context, trace
// it with the three eBPF tracers (TR_IN / TR_RT / TR_KN), run it under
// optional background interference, merge the traces and synthesize a
// TimingModel — the same deployment loop the case-study driver uses, but
// for arbitrary specs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/model_synthesis.hpp"
#include "dds/domain.hpp"
#include "ebpf/tracers.hpp"
#include "overhead/profile.hpp"
#include "ros2/context.hpp"
#include "sched/interference.hpp"
#include "scenario/spec.hpp"
#include "trace/event.hpp"

namespace tetra::scenario {

struct RunnerOptions {
  /// Background busy/sleep threads fragmenting callback executions.
  int interference_threads = 0;
  sched::InterferenceConfig interference;
  core::SynthesisOptions synthesis;
  /// Worker threads for the synthesis session (per-trace parallelism in
  /// multi-run/multi-mode synthesis).
  int threads = 1;
  /// Per-probe tracer cost injected into every run (src/overhead/). The
  /// profile's jitter seed is mixed with the run seed, so distinct runs
  /// draw distinct jitter while identical (spec, profile) runs stay
  /// byte-reproducible.
  overhead::ProbeCostProfile probe_profile;
  /// Estimate the injected probe cost from each trace and subtract it from
  /// execution-time statistics during synthesis.
  bool compensate_overhead = false;
};

/// Handles to a spec instantiated into a Context. Owns the untraced
/// external writers; nodes are owned by the Context as usual.
struct ScenarioInstance {
  std::map<std::string, ros2::Node*> node_of;
  std::vector<std::unique_ptr<dds::PeriodicWriter>> external_writers;
};

struct ScenarioRunResult {
  core::TimingModel model;
  trace::EventVector trace;  ///< merged init + runtime trace
  ebpf::OverheadReport overhead;
};

class ScenarioRunner {
 public:
  ScenarioRunner() = default;
  explicit ScenarioRunner(RunnerOptions options) : options_(std::move(options)) {}

  /// Builds the spec's nodes, callbacks, sync groups and external inputs
  /// into an existing context. `demand_scale` scales every compute demand
  /// (mode variation / load sweeps). Throws std::invalid_argument when
  /// validate_spec reports violations.
  static ScenarioInstance instantiate(ros2::Context& ctx,
                                      const ScenarioSpec& spec,
                                      double demand_scale = 1.0);

  /// One traced run: fresh context (seeded from spec.seed and run_index),
  /// tracers around the app, spec.run_duration of simulated time, model
  /// synthesis over the merged trace.
  ScenarioRunResult run(const ScenarioSpec& spec, double demand_scale = 1.0,
                        std::uint64_t run_index = 0) const;

  /// §V option (iv): one traced run per spec mode (scenarios without modes
  /// get a single "nominal" mode), per-mode DAGs kept separate.
  core::MultiModeDag run_modes(const ScenarioSpec& spec) const;

  const RunnerOptions& options() const { return options_; }

  api::SynthesisConfig session_config() const;

 private:
  /// One traced simulation without synthesis: the init/runtime tracer
  /// outputs are returned as separate segments for session ingestion.
  struct TracedRun {
    trace::EventVector init_trace;
    trace::EventVector runtime_trace;
    ebpf::OverheadReport overhead;
  };
  TracedRun trace_run(const ScenarioSpec& spec, double demand_scale,
                      std::uint64_t run_index) const;

  RunnerOptions options_;
};

/// Per-vertex comparison of a probed model against the probe-free truth.
struct OverheadRoundTrip {
  struct Entry {
    std::string label;
    std::int64_t truth_ns = 0;     ///< free-trace mACET
    std::int64_t measured_ns = 0;  ///< probed-trace mACET
  };
  std::vector<Entry> entries;
  std::size_t matched = 0;    ///< vertices present in both models
  std::size_t unmatched = 0;  ///< vertices missing on either side
  double mean_abs_error_ns = 0.0;
  double max_abs_error_ns = 0.0;
};

/// Round-trip validation of overhead compensation (ISSUE 8 acceptance):
/// runs `spec` probe-free for the ground-truth model, runs it once under
/// `profile`, then synthesizes that single probed trace twice — with and
/// without compensation — and compares per-vertex mean execution times
/// against the truth. A working estimator makes `compensated` much closer
/// to the truth than `uncompensated`.
struct OverheadRoundTripResult {
  OverheadRoundTrip compensated;
  OverheadRoundTrip uncompensated;
  Duration estimated_per_hit;  ///< estimator output on the probed trace
  ebpf::OverheadReport overhead;  ///< of the probed run
};

OverheadRoundTripResult run_overhead_round_trip(
    const ScenarioSpec& spec, const overhead::ProbeCostProfile& profile,
    const RunnerOptions& base = {});

}  // namespace tetra::scenario
