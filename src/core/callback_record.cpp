#include "core/callback_record.hpp"

#include <algorithm>

namespace tetra::core {

std::string annotate_topic(const std::string& topic, const std::string& suffix) {
  std::string out = topic;
  out += kTopicAnnotationSeparator;
  out += suffix;
  return out;
}

std::pair<std::string, std::string> split_annotated_topic(const std::string& topic) {
  const auto pos = topic.find(kTopicAnnotationSeparator);
  if (pos == std::string::npos) return {topic, {}};
  return {topic.substr(0, pos), topic.substr(pos + 1)};
}

void CallbackRecord::add_instance(TimePoint start, Duration exec_time,
                                  std::optional<TimePoint> end) {
  start_times.push_back(start);
  end_times.push_back(end.value_or(start + exec_time));
  exec_times.push_back(exec_time);
  stats.add(exec_time);
}

void CallbackRecord::merge_from(const CallbackRecord& other) {
  is_sync_subscriber |= other.is_sync_subscriber;
  for (const auto& topic : other.out_topics) add_out_topic(topic);
  start_times.insert(start_times.end(), other.start_times.begin(),
                     other.start_times.end());
  end_times.insert(end_times.end(), other.end_times.begin(),
                   other.end_times.end());
  exec_times.insert(exec_times.end(), other.exec_times.begin(),
                    other.exec_times.end());
  stats.merge(other.stats);

  // Re-sort the parallel instance vectors chronologically: two workers'
  // streams interleave, and estimated_period() reads consecutive starts.
  std::vector<std::size_t> order(start_times.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return start_times[a] < start_times[b];
                   });
  std::vector<TimePoint> starts, ends;
  std::vector<Duration> execs;
  starts.reserve(order.size());
  ends.reserve(order.size());
  execs.reserve(order.size());
  for (std::size_t i : order) {
    starts.push_back(start_times[i]);
    ends.push_back(end_times[i]);
    execs.push_back(exec_times[i]);
  }
  start_times = std::move(starts);
  end_times = std::move(ends);
  exec_times = std::move(execs);
}

void CallbackRecord::add_out_topic(const std::string& topic) {
  if (std::find(out_topics.begin(), out_topics.end(), topic) == out_topics.end()) {
    out_topics.push_back(topic);
  }
}

std::optional<Duration> CallbackRecord::estimated_period() const {
  if (kind != CallbackKind::Timer || start_times.size() < 2) return std::nullopt;
  std::vector<std::int64_t> diffs;
  diffs.reserve(start_times.size() - 1);
  for (std::size_t i = 1; i < start_times.size(); ++i) {
    diffs.push_back((start_times[i] - start_times[i - 1]).count_ns());
  }
  // Median is robust against dispatch jitter from executor contention.
  std::nth_element(diffs.begin(), diffs.begin() + diffs.size() / 2, diffs.end());
  return Duration{diffs[diffs.size() / 2]};
}

CallbackRecord& CallbackList::match_or_insert(CallbackKind kind, CallbackId id,
                                              Pid pid,
                                              const std::string& node_name,
                                              std::string_view in_topic) {
  for (auto& record : records) {
    if (record.id != id) continue;
    if (record.kind == CallbackKind::Service && record.in_topic != in_topic) {
      continue;  // services additionally match on the annotated in-topic
    }
    return record;
  }
  CallbackRecord& fresh = records.emplace_back();
  fresh.kind = kind;
  fresh.id = id;
  fresh.pid = pid;
  fresh.node_name = node_name;
  fresh.in_topic = in_topic;
  return fresh;
}

CallbackRecord& CallbackList::match_or_insert(const CallbackRecord& instance) {
  return match_or_insert(instance.kind, instance.id, instance.pid,
                         instance.node_name, instance.in_topic);
}

const CallbackRecord* CallbackList::find_by_label(const std::string& label) const {
  for (const auto& record : records) {
    if (record.label == label) return &record;
  }
  return nullptr;
}

std::size_t CallbackList::total_instances() const {
  std::size_t total = 0;
  for (const auto& record : records) total += record.instances();
  return total;
}

}  // namespace tetra::core
