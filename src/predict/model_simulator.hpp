// Model-level discrete-event replay: executes a synthesized core::Dag
// directly on the sim::Simulator, with no substrate (no DDS domain, no
// tracers, no trace re-synthesis) — the "use the model" half of the
// paper's trace -> model -> analysis loop.
//
// Replay semantics mirror what the synthesis observed:
//  - timer vertices fire at their estimated period (first fire after one
//    period, the substrate's default phase);
//  - dangling in-topics (untraced external inputs) are driven by periodic
//    writers whose period is estimated from the model itself;
//  - each activation samples an execution time from the vertex's
//    mBCET/mACET/mWCET-fitted distribution (seeded, deterministic);
//  - each node's executor replays with the worker count the synthesis
//    learned (DagVertex::node_workers, overridable per node): callbacks
//    of one mutually-exclusive serialization group (exec_group) never
//    overlap, distinct groups — and reentrant callbacks with themselves —
//    run concurrently up to the worker count;
//  - publications happen at activation completion and reach each
//    subscribing vertex after a sampled DDS hop latency;
//  - AND junctions fire when every member has delivered since the last
//    firing, attributing the fused publication to the member completing
//    the set (exactly the substrate's message_filters semantics);
//  - OR junctions need no special handling: every delivery triggers one
//    activation.
//
// Activations are recorded as analysis::CallbackInstance values, and
// predicted chain latencies are measured by the *same*
// analysis::measure_chain_latency traversal that measures substrate
// traces — predictions and measurements are comparable 1:1.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/chains.hpp"
#include "analysis/latency.hpp"
#include "core/dag.hpp"
#include "sched/thread.hpp"
#include "support/time.hpp"

namespace tetra::predict {

/// Uniform DDS hop-latency bound applied to every model edge (the
/// synthesized model keeps no per-hop latency samples). Defaults to the
/// substrate's transport model.
struct HopLatencyBound {
  Duration lo = Duration::us(50);
  Duration hi = Duration::us(200);
};

/// What-if executor/thread mapping: replay activations run as compute
/// bursts on a sched::Machine with `num_cpus` CPUs, so predictions
/// include CPU contention and preemption. Without a mapping the replay is
/// contention-free (as many CPUs as executors).
struct ExecutorMapping {
  int num_cpus = 4;
  /// node name -> executor id; nodes sharing an id share one
  /// single-threaded executor (executor consolidation). Unmapped nodes
  /// keep a private executor.
  std::map<std::string, int> executor_of_node;
  int priority = 0;
  sched::SchedPolicy policy = sched::SchedPolicy::RoundRobin;
};

struct PredictionConfig {
  /// Base seed of every sampling stream (per-vertex streams are derived
  /// per key, so vertex sets can change without shifting other streams).
  std::uint64_t seed = 1;
  /// Simulated replay length.
  Duration horizon = Duration::sec(10);
  HopLatencyBound hop_latency;
  /// Drive period for dangling inputs when the model supports no
  /// estimate (no timer to anchor the run length).
  Duration default_input_period = Duration::ms(100);
  /// Per-topic overrides (plain topic names) for dangling-input drives.
  std::map<std::string, Duration> input_period;
  /// Chain-enumeration cap; PredictionResult::chains_truncated reports
  /// when it fires.
  std::size_t max_chains = 4096;

  // -- what-if knobs -------------------------------------------------------
  /// Executor worker-count overrides by node name ("would 2 -> 4 executor
  /// threads cut chain latency?"). Unlisted nodes replay with the worker
  /// count the synthesis learned for them (DagVertex::node_workers).
  std::map<std::string, int> workers;
  /// Timer period overrides by vertex key.
  std::map<std::string, Duration> timer_period;
  /// Execution-time scaling by vertex key (e.g. 0.5 = twice as fast).
  std::map<std::string, double> exec_scale;
  /// Scales every vertex's execution time (deployment-wide speedup).
  double global_exec_scale = 1.0;
  /// Vertices removed from the replay (chain pruning); deliveries to them
  /// are dropped and chains through them are not reported.
  std::set<std::string> pruned;
  /// Executor/thread mapping; enables the contention-aware machine mode.
  std::optional<ExecutorMapping> executors;
};

/// Predicted end-to-end latency distribution of one chain, measured over
/// the replay exactly like analysis::measure_chain_latency measures a
/// substrate trace (same traversal code, same ChainLatencyResult).
struct PredictedChainLatency {
  analysis::Chain chain;             ///< vertex keys, source -> sink
  std::vector<std::string> topics;   ///< measured-comparable topic sequence
  analysis::ChainLatencyResult latency;

  Duration min() const { return latency.min(); }
  Duration mean() const { return latency.mean(); }
  Duration max() const { return latency.max(); }
  Duration p99() const {
    return Duration{static_cast<std::int64_t>(latency.latencies.quantile(0.99))};
  }
};

struct PredictionResult {
  std::vector<PredictedChainLatency> chains;
  /// Chain enumeration hit PredictionConfig::max_chains; the chain list
  /// is incomplete (CLI front-ends warn).
  bool chains_truncated = false;
  std::size_t activations = 0;  ///< callback executions replayed
  std::size_t deliveries = 0;   ///< DDS samples delivered
  Duration horizon = Duration::zero();
};

class ModelSimulator {
 public:
  explicit ModelSimulator(const core::Dag& dag, PredictionConfig config = {});

  /// The recorded replay, ready for analysis::InstanceTimeline:
  /// activations as CallbackInstances, and every write in the order made,
  /// the activations' and the bare external inputs'. Topic ids index
  /// `topics`.
  struct Replay {
    std::vector<std::string> topics;
    std::vector<analysis::CallbackInstance> instances;
    std::vector<analysis::InstanceWrite> writes;
    std::size_t activations = 0;
    std::size_t deliveries = 0;
  };

  /// Runs one replay over config.horizon (deterministic in (dag, config)).
  Replay replay() const;

  /// Replays the model and measures every enumerated chain.
  PredictionResult predict() const;

  /// The drive period the replay uses for a dangling input topic (plain
  /// name): the config override, else a model-derived estimate (run
  /// length anchored on timer periods divided by the subscriber's
  /// instance count), else config.default_input_period.
  Duration input_period_for(const std::string& plain_topic) const;

  const core::Dag& dag() const { return *dag_; }
  const PredictionConfig& config() const { return config_; }

 private:
  const core::Dag* dag_;
  PredictionConfig config_;
};

}  // namespace tetra::predict
