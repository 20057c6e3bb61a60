#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/dag_builder.hpp"
#include "telemetry/span.hpp"

namespace tetra::core {

namespace {

/// Whether two sorted vectors share an element: probes the smaller into
/// the larger by binary search.
template <typename T>
bool intersects(const std::vector<T>& a, const std::vector<T>& b) {
  const std::vector<T>& probe = a.size() <= b.size() ? a : b;
  const std::vector<T>& in = a.size() <= b.size() ? b : a;
  for (const T& item : probe) {
    if (std::binary_search(in.begin(), in.end(), item)) return true;
  }
  return false;
}

}  // namespace

void IncrementalSynthesizer::append(const trace::ColumnsView& view) {
  apply_delta(index_.append(view));
}

void IncrementalSynthesizer::append(trace::EventColumns&& segment) {
  apply_delta(index_.append(std::move(segment)));
}

void IncrementalSynthesizer::apply_delta(const AppendDelta& delta) {
  // A node is invalidated when the segment touched its own event stream
  // (ROS or sched — Alg. 2 reads the node's sched windows) …
  dirty_.insert(delta.ros_pids.begin(), delta.ros_pids.end());
  dirty_.insert(delta.sched_pids.begin(), delta.sched_pids.end());
  // … or anything its last extraction read across pids: another stream it
  // walked (FindCaller/FindClient), or a (topic, src_ts) key it looked up —
  // including misses, which a late-arriving counterpart event resolves.
  for (const auto& [pid, deps] : deps_) {
    if (dirty_.count(pid) > 0) continue;
    if (intersects(deps.pids, delta.ros_pids) ||
        intersects(deps.write_keys, delta.write_keys) ||
        intersects(deps.response_keys, delta.response_keys)) {
      dirty_.insert(pid);
    }
  }
}

TimingModel IncrementalSynthesizer::synthesize(const ExtractOptions& extract,
                                               bool take) {
  TimingModel model;
  {
    telemetry::ScopedSpan span("synth.extract", index_.size());
    // Lists extracted under other options are stale whatever their inputs.
    const bool stale = extract != extracted_with_;
    extracted_with_ = extract;
    last_extracted_ = 0;
    model.node_callbacks.reserve(index_.nodes().size());
    // nodes() iterates pid-ascending — the same order extract_all_nodes
    // produces, so downstream label ordinals match a full synthesis.
    for (const auto& [pid, name] : index_.nodes()) {
      auto cached = lists_.find(pid);
      if (!stale && cached != lists_.end() && dirty_.count(pid) == 0) {
        model.node_callbacks.push_back(take ? std::move(cached->second)
                                            : cached->second);
        continue;
      }
      ++last_extracted_;
      if (take) {
        model.node_callbacks.push_back(extract_callbacks(index_, pid, extract));
        continue;
      }
      ExtractDeps deps;
      CallbackList list = extract_callbacks(index_, pid, extract, &deps);
      deps_[pid] = std::move(deps);
      model.node_callbacks.push_back(list);
      lists_.insert_or_assign(pid, std::move(list));
    }
    dirty_.clear();
    if (take) {
      lists_.clear();
      deps_.clear();
    }
    // Multi-threaded executors yield one per-worker list each; unify them
    // per node before labels are assigned.
    merge_worker_lists(model.node_callbacks);
    normalize_labels(model.node_callbacks);
  }
  telemetry::ScopedSpan span("synth.build", model.node_callbacks.size());
  model.dag = build_dag(model.node_callbacks, options_.dag);
  return model;
}

}  // namespace tetra::core
