#include "analysis/latency.hpp"

#include <algorithm>

#include "core/extract.hpp"

namespace tetra::analysis {

const std::vector<TimePoint> InstanceTimeline::kNoWrites{};

InstanceTimeline::InstanceTimeline(const trace::EventVector& events)
    : InstanceTimeline(trace::EventColumns(events).view()) {}

InstanceTimeline::InstanceTimeline(const trace::ColumnsView& events) {
  trace::EventColumns copy;
  if (!trace::is_time_sorted(events)) {
    copy.append(events);
    trace::sort_by_time(copy);
  }
  const trace::ColumnsView v = copy.empty() ? events : copy.view();
  consumers_.reserve(v.count / 4);

  // Per-PID in-flight instance assembly, mirroring the single-threaded
  // executor assumption: one open instance per PID at a time.
  std::map<Pid, CallbackInstance> open;
  for (std::size_t i = 0; i < v.count; ++i) {
    const Pid pid = static_cast<Pid>(v.pid[i]);
    switch (static_cast<trace::EventType>(v.type[i])) {
      case trace::EventType::CallbackStart: {
        CallbackInstance inst;
        inst.pid = pid;
        inst.kind = static_cast<CallbackKind>(v.aux[i]);
        inst.start = TimePoint{v.time[i]};
        open[pid] = std::move(inst);
        break;
      }
      case trace::EventType::TimerCall: {
        auto it = open.find(pid);
        if (it != open.end()) {
          it->second.callback_id = static_cast<CallbackId>(v.arg_a[i]);
        }
        break;
      }
      case trace::EventType::Take: {
        auto it = open.find(pid);
        if (it != open.end()) {
          it->second.callback_id = static_cast<CallbackId>(v.arg_a[i]);
          it->second.take = {std::string(v.str(v.arg_c[i])),
                             TimePoint{v.arg_b[i]}};
        }
        break;
      }
      case trace::EventType::TakeTypeErased: {
        // A response taken but not dispatched (P14 false): the instance
        // consumed nothing, and Alg. 1 drops it too (lines 24-25).
        if (v.aux[i] == 0) open.erase(pid);
        break;
      }
      case trace::EventType::DdsWrite: {
        const std::string topic(v.str(v.arg_c[i]));
        const TimePoint src_ts{v.arg_b[i]};
        writes_by_topic_[topic].push_back(src_ts);
        auto it = open.find(pid);
        if (it != open.end()) it->second.writes.push_back({topic, src_ts});
        break;
      }
      case trace::EventType::CallbackEnd: {
        auto it = open.find(pid);
        if (it != open.end()) {
          it->second.end = TimePoint{v.time[i]};
          const std::size_t index = instances_.size();
          if (it->second.take.has_value()) {
            consumers_[Key{it->second.take->first,
                           it->second.take->second.count_ns()}]
                .push_back(index);
          }
          instances_.push_back(std::move(it->second));
          open.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
}

InstanceTimeline::InstanceTimeline(
    std::vector<CallbackInstance> instances,
    std::map<std::string, std::vector<TimePoint>> external_writes)
    : instances_(std::move(instances)),
      writes_by_topic_(std::move(external_writes)) {
  consumers_.reserve(instances_.size());
  for (std::size_t index = 0; index < instances_.size(); ++index) {
    const CallbackInstance& inst = instances_[index];
    if (inst.take.has_value()) {
      consumers_[Key{inst.take->first, inst.take->second.count_ns()}]
          .push_back(index);
    }
    for (const auto& [topic, ts] : inst.writes) {
      writes_by_topic_[topic].push_back(ts);
    }
  }
  // The event-based constructor yields per-topic writes in trace order;
  // match that here so traversal output is independent of how the
  // timeline was fed.
  for (auto& [topic, writes] : writes_by_topic_) {
    std::sort(writes.begin(), writes.end());
  }
}

std::vector<const CallbackInstance*> InstanceTimeline::consumers_of(
    const std::string& topic, TimePoint src_ts) const {
  std::vector<const CallbackInstance*> out;
  const std::vector<std::size_t>* indices = consumer_indices(topic, src_ts);
  if (indices == nullptr) return out;
  out.reserve(indices->size());
  for (std::size_t index : *indices) out.push_back(&instances_[index]);
  return out;
}

const std::vector<std::size_t>* InstanceTimeline::consumer_indices(
    const std::string& topic, TimePoint src_ts) const {
  auto it = consumers_.find(Key{topic, src_ts.count_ns()});
  return it == consumers_.end() ? nullptr : &it->second;
}

const std::vector<TimePoint>& InstanceTimeline::writes_on(
    const std::string& topic) const {
  auto it = writes_by_topic_.find(topic);
  return it == writes_by_topic_.end() ? kNoWrites : it->second;
}

namespace {

/// Follows one sample recursively to the deepest consumer end time.
/// Returns the completion time of the chain for this sample, if the whole
/// remaining topic sequence is traversed.
std::optional<TimePoint> follow(const InstanceTimeline& timeline,
                                const std::vector<std::string>& topics,
                                std::size_t depth, TimePoint src_ts) {
  const std::vector<std::size_t>* consumers =
      timeline.consumer_indices(topics[depth], src_ts);
  if (consumers == nullptr) return std::nullopt;
  std::optional<TimePoint> best;
  for (const std::size_t index : *consumers) {
    const CallbackInstance* instance = &timeline.instances()[index];
    if (depth + 1 == topics.size()) {
      // Last hop: the chain completes when the final consumer finishes.
      if (!best.has_value() || instance->end > *best) best = instance->end;
      continue;
    }
    // Find this instance's write on the next topic (if it produced one).
    for (const auto& [topic, ts] : instance->writes) {
      if (topic == topics[depth + 1]) {
        auto completed = follow(timeline, topics, depth + 1, ts);
        if (completed.has_value() && (!best.has_value() || *completed > *best)) {
          best = completed;
        }
      }
    }
  }
  return best;
}

}  // namespace

ChainLatencyResult measure_chain_latency(const InstanceTimeline& timeline,
                                         const std::vector<std::string>& topics) {
  ChainLatencyResult result;
  if (topics.empty()) return result;
  for (TimePoint src_ts : timeline.writes_on(topics[0])) {
    auto completed = follow(timeline, topics, 0, src_ts);
    if (completed.has_value()) {
      result.latencies.add(*completed - src_ts);
      ++result.complete;
    } else {
      ++result.incomplete;
    }
  }
  return result;
}

std::map<CallbackId, SampleSet> measure_waiting_times(
    const trace::EventVector& events) {
  const core::TraceIndex index(events);
  const InstanceTimeline timeline(index.view());
  std::map<CallbackId, SampleSet> out;
  for (const auto& instance : timeline.instances()) {
    auto wakeup = core::last_wakeup_before(index.wakeups_of(instance.pid),
                                           instance.start);
    if (!wakeup.has_value()) continue;
    out[instance.callback_id].add(instance.start - *wakeup);
  }
  return out;
}

}  // namespace tetra::analysis
