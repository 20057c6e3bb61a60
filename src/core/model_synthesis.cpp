#include "core/model_synthesis.hpp"

#include "telemetry/span.hpp"

namespace tetra::core {

const CallbackRecord* TimingModel::find_callback(const std::string& label) const {
  for (const auto& list : node_callbacks) {
    if (const auto* record = list.find_by_label(label)) return record;
  }
  return nullptr;
}

TimingModel synthesize(const TraceIndex& index,
                       const SynthesisOptions& options) {
  TimingModel model;
  {
    telemetry::ScopedSpan span("synth.extract", index.size());
    model.node_callbacks = extract_all_nodes(index, options.extract);
    // Multi-threaded executors yield one per-worker list each; unify them
    // per node before labels are assigned.
    merge_worker_lists(model.node_callbacks);
    normalize_labels(model.node_callbacks);
  }
  telemetry::ScopedSpan span("synth.build", model.node_callbacks.size());
  model.dag = build_dag(model.node_callbacks, options.dag);
  return model;
}

}  // namespace tetra::core
