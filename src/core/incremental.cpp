#include "core/incremental.hpp"

#include <algorithm>

#include "core/dag_builder.hpp"

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

void IncrementalSynthesizer::append(const trace::EventVector& sorted_segment) {
  apply_delta(index_.append(sorted_segment));
}

void IncrementalSynthesizer::append(const trace::ColumnsView& view) {
  apply_delta(index_.append(view));
}

void IncrementalSynthesizer::apply_delta(const AppendDelta& delta) {
  model_dirty_ = true;
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

const TimingModel& IncrementalSynthesizer::model() {
  if (!model_dirty_) {
    last_extracted_ = 0;
    return model_;
  }
  std::size_t extracted = 0;
  for (const auto& [pid, name] : index_.nodes()) {
    if (lists_.count(pid) > 0 && dirty_.count(pid) == 0) continue;
    ExtractDeps deps;
    lists_[pid] = extract_callbacks(index_, pid, options_.extract, &deps);
    deps_[pid] = std::move(deps);
    ++extracted;
  }
  dirty_.clear();
  last_extracted_ = extracted;

  TimingModel model;
  model.node_callbacks.reserve(lists_.size());
  // nodes() iterates pid-ascending — the same order extract_all_nodes
  // produces, so downstream label ordinals match a full synthesis.
  for (const auto& [pid, name] : index_.nodes()) {
    auto it = lists_.find(pid);
    if (it != lists_.end()) model.node_callbacks.push_back(it->second);
  }
  merge_worker_lists(model.node_callbacks);
  normalize_labels(model.node_callbacks);
  model.dag = build_dag(model.node_callbacks, options_.dag);
  model_ = std::move(model);
  model_dirty_ = false;
  return model_;
}

trace::EventVector IncrementalSynthesizer::merged_events() const {
  trace::EventVector events = trace::materialize(index_.view());
  // Rows are stored in append order; the stable sort restores the (time,
  // append-sequence) merged order.
  trace::sort_by_time(events);
  return events;
}

}  // namespace tetra::core
