#include "analysis/latency.hpp"

#include <algorithm>
#include <array>

namespace tetra::analysis {

InstanceTimeline::InstanceTimeline(const trace::EventVector& events)
    : InstanceTimeline(trace::EventColumns(events).view()) {}

InstanceTimeline::InstanceTimeline(const trace::ColumnsView& events) {
  trace::EventColumns copy;
  if (!trace::is_time_sorted(events)) {
    copy.append(events);
    trace::sort_by_time(copy);
  }
  const trace::ColumnsView v = copy.empty() ? events : copy.view();

  // Row counts per type bound every list, so nothing regrows in the walk.
  std::array<std::size_t, 256> rows_of_type{};
  for (std::size_t i = 0; i < v.count; ++i) ++rows_of_type[v.type[i]];
  const auto rows_of = [&](trace::EventType type) {
    return rows_of_type[static_cast<std::uint8_t>(type)];
  };
  instances_.reserve(rows_of(trace::EventType::CallbackEnd));
  next_consumer_.reserve(rows_of(trace::EventType::CallbackEnd));
  writes_.reserve(rows_of(trace::EventType::DdsWrite));
  std::vector<TopicSample> written;
  written.reserve(rows_of(trace::EventType::DdsWrite));
  size_consumers(rows_of(trace::EventType::Take));

  // The columns' string ids, mapped to topic ids at their first use.
  std::vector<TopicId> topic_of_string(v.string_count, kNoTopic);
  const auto topic = [&](std::uint32_t string_id) {
    if (string_id < topic_of_string.size() &&
        topic_of_string[string_id] != kNoTopic) {
      return topic_of_string[string_id];
    }
    const TopicId id = intern(v.str(string_id));  // throws on a bad id
    topic_of_string[string_id] = id;
    return id;
  };

  // Per-PID in-flight instance assembly, mirroring the single-threaded
  // executor assumption: one open instance per PID at a time. A slot is
  // reused by its pid's next instance, and consecutive rows mostly share
  // a pid, so the last slot is tried before the hash.
  struct OpenSlot {
    bool open = false;
    CallbackInstance instance;
    std::vector<TopicSample> writes;
  };
  std::vector<OpenSlot> slots;
  std::unordered_map<Pid, std::size_t> slot_of_pid;
  Pid last_pid = kInvalidPid;
  std::size_t last_slot = 0;
  const auto slot_of = [&](Pid pid) -> OpenSlot& {
    if (slots.empty() || pid != last_pid) {
      const auto [it, inserted] = slot_of_pid.try_emplace(pid, slots.size());
      if (inserted) slots.emplace_back();
      last_pid = pid;
      last_slot = it->second;
    }
    return slots[last_slot];
  };

  for (std::size_t i = 0; i < v.count; ++i) {
    const Pid pid = static_cast<Pid>(v.pid[i]);
    switch (static_cast<trace::EventType>(v.type[i])) {
      case trace::EventType::CallbackStart: {
        OpenSlot& slot = slot_of(pid);
        slot.open = true;
        slot.instance = CallbackInstance{};
        slot.instance.pid = pid;
        slot.instance.kind = static_cast<CallbackKind>(v.aux[i]);
        slot.instance.start = TimePoint{v.time[i]};
        slot.writes.clear();
        break;
      }
      case trace::EventType::TimerCall: {
        OpenSlot& slot = slot_of(pid);
        if (slot.open) {
          slot.instance.callback_id = static_cast<CallbackId>(v.arg_a[i]);
        }
        break;
      }
      case trace::EventType::Take: {
        OpenSlot& slot = slot_of(pid);
        if (slot.open) {
          slot.instance.callback_id = static_cast<CallbackId>(v.arg_a[i]);
          slot.instance.take =
              TopicSample{topic(v.arg_c[i]), TimePoint{v.arg_b[i]}};
        }
        break;
      }
      case trace::EventType::TakeTypeErased: {
        // A response taken but not dispatched (P14 false): the instance
        // consumed nothing, and Alg. 1 drops it too (lines 24-25).
        if (v.aux[i] == 0) slot_of(pid).open = false;
        break;
      }
      case trace::EventType::DdsWrite: {
        const TopicSample write{topic(v.arg_c[i]), TimePoint{v.arg_b[i]}};
        written.push_back(write);
        OpenSlot& slot = slot_of(pid);
        if (slot.open) slot.writes.push_back(write);
        break;
      }
      case trace::EventType::CallbackEnd: {
        OpenSlot& slot = slot_of(pid);
        if (slot.open) {
          slot.open = false;
          slot.instance.end = TimePoint{v.time[i]};
          slot.instance.first_write = static_cast<std::uint32_t>(writes_.size());
          slot.instance.write_count = static_cast<std::uint32_t>(slot.writes.size());
          writes_.insert(writes_.end(), slot.writes.begin(), slot.writes.end());
          instances_.push_back(slot.instance);
          next_consumer_.push_back(kNoInstance);
          if (slot.instance.take.has_value()) {
            link_consumer(instances_.size() - 1);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  index_writes(written);
}

InstanceTimeline::InstanceTimeline(const std::vector<std::string>& topics,
                                   std::vector<CallbackInstance> instances,
                                   const std::vector<InstanceWrite>& writes)
    : instances_(std::move(instances)),
      next_consumer_(instances_.size(), kNoInstance) {
  std::vector<TopicId> id_of;
  id_of.reserve(topics.size());
  for (const std::string& name : topics) id_of.push_back(intern(name));
  // Group the writes by instance, each instance's in the order made.
  for (CallbackInstance& inst : instances_) inst.write_count = 0;
  for (const InstanceWrite& write : writes) {
    if (write.instance != kNoInstance) ++instances_.at(write.instance).write_count;
  }
  std::uint32_t next = 0;
  for (CallbackInstance& inst : instances_) {
    inst.first_write = next;
    next += inst.write_count;
    inst.write_count = 0;
  }
  writes_.resize(next);
  std::vector<TopicSample> written;
  written.reserve(writes.size());
  for (const InstanceWrite& write : writes) {
    written.push_back({id_of.at(write.sample.topic), write.sample.src_ts});
    if (write.instance == kNoInstance) continue;
    CallbackInstance& inst = instances_[write.instance];
    writes_[inst.first_write + inst.write_count++] = written.back();
  }
  index_writes(written);
  // The event-based constructor yields per-topic writes in trace order;
  // match that here so traversal output is independent of how the
  // timeline was fed.
  for (std::size_t t = 0; t < topics_.size(); ++t) {
    std::sort(write_times_.begin() + write_offsets_[t],
              write_times_.begin() + write_offsets_[t + 1]);
  }
  const auto takes = static_cast<std::size_t>(
      std::count_if(instances_.begin(), instances_.end(),
                    [](const CallbackInstance& inst) { return inst.take.has_value(); }));
  size_consumers(takes);
  for (std::size_t index = 0; index < instances_.size(); ++index) {
    CallbackInstance& inst = instances_[index];
    if (inst.take.has_value()) {
      inst.take->topic = id_of.at(inst.take->topic);
      link_consumer(index);
    }
  }
}

TopicId InstanceTimeline::intern(std::string_view name) {
  if (const auto it = topic_ids_.find(name); it != topic_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<TopicId>(topics_.size());
  topics_.emplace_back(name);
  topic_ids_.emplace(topics_.back(), id);
  return id;
}

void InstanceTimeline::index_writes(const std::vector<TopicSample>& writes) {
  write_offsets_.assign(topics_.size() + 1, 0);
  for (const TopicSample& write : writes) ++write_offsets_[write.topic + 1];
  for (std::size_t t = 0; t < topics_.size(); ++t) {
    write_offsets_[t + 1] += write_offsets_[t];
  }
  std::vector<std::uint32_t> fill(write_offsets_.begin(),
                                  write_offsets_.end() - 1);
  write_times_.resize(writes.size());
  for (const TopicSample& write : writes) {
    write_times_[fill[write.topic]++] = write.src_ts;
  }
}

void InstanceTimeline::size_consumers(std::size_t samples) {
  std::size_t size = 2;
  int bits = 1;
  while (size < 2 * samples) {
    size *= 2;
    ++bits;
  }
  consumers_.assign(size, Consumers{});
  consumer_shift_ = 64 - bits;
}

std::size_t InstanceTimeline::consumer_slot(
    const core::TopicTsKey& sample) const {
  // Fibonacci hashing: the product's top bits mix every bit of the key.
  std::size_t slot = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(core::TopicTsKeyHash{}(sample)) *
       0x9E3779B97F4A7C15ULL) >>
      consumer_shift_);
  const std::size_t mask = consumers_.size() - 1;
  while (consumers_[slot].first != kNoInstance &&
         !(consumers_[slot].sample == sample)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void InstanceTimeline::link_consumer(std::size_t index) {
  const TopicSample& take = *instances_[index].take;
  const core::TopicTsKey sample{take.topic, take.src_ts.count_ns()};
  Consumers& consumers = consumers_[consumer_slot(sample)];
  const auto i = static_cast<std::uint32_t>(index);
  if (consumers.first == kNoInstance) {
    consumers = Consumers{sample, i, i};
  } else {
    next_consumer_[consumers.last] = i;
    consumers.last = i;
  }
}

std::uint32_t InstanceTimeline::first_consumer(TopicId topic,
                                               TimePoint src_ts) const {
  return consumers_[consumer_slot(core::TopicTsKey{topic, src_ts.count_ns()})]
      .first;
}

TopicId InstanceTimeline::topic_id(std::string_view name) const {
  const auto it = topic_ids_.find(name);
  return it == topic_ids_.end() ? kNoTopic : it->second;
}

std::vector<const CallbackInstance*> InstanceTimeline::consumers_of(
    std::string_view topic, TimePoint src_ts) const {
  std::vector<const CallbackInstance*> out;
  const TopicId id = topic_id(topic);
  if (id == kNoTopic) return out;
  for (std::uint32_t i = first_consumer(id, src_ts); i != kNoInstance;
       i = next_consumer_[i]) {
    out.push_back(&instances_[i]);
  }
  return out;
}

std::span<const TimePoint> InstanceTimeline::writes_on(
    std::string_view topic) const {
  return writes_on(topic_id(topic));
}

std::span<const TimePoint> InstanceTimeline::writes_on(TopicId topic) const {
  if (topic >= topics_.size()) return {};
  return std::span<const TimePoint>(write_times_)
      .subspan(write_offsets_[topic],
               write_offsets_[topic + 1] - write_offsets_[topic]);
}

std::optional<TimePoint> InstanceTimeline::follow(
    const std::vector<TopicId>& chain, std::size_t depth,
    TimePoint src_ts) const {
  std::optional<TimePoint> best;
  for (std::uint32_t i = first_consumer(chain[depth], src_ts);
       i != kNoInstance; i = next_consumer_[i]) {
    const CallbackInstance& instance = instances_[i];
    if (depth + 1 == chain.size()) {
      // Last hop: the chain completes when the final consumer finishes.
      if (!best.has_value() || instance.end > *best) best = instance.end;
      continue;
    }
    // Follow this instance's writes on the next topic (if it produced any).
    for (const TopicSample& write : writes_of(instance)) {
      if (write.topic != chain[depth + 1]) continue;
      const auto completed = follow(chain, depth + 1, write.src_ts);
      if (completed.has_value() && (!best.has_value() || *completed > *best)) {
        best = completed;
      }
    }
  }
  return best;
}

ChainLatencyResult measure_chain_latency(const InstanceTimeline& timeline,
                                         const std::vector<std::string>& topics) {
  ChainLatencyResult result;
  if (topics.empty()) return result;
  std::vector<TopicId> chain;
  chain.reserve(topics.size());
  for (const std::string& topic : topics) chain.push_back(timeline.topic_id(topic));
  for (TimePoint src_ts : timeline.writes_on(chain[0])) {
    const auto completed = timeline.follow(chain, 0, src_ts);
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
