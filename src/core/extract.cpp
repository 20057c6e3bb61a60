#include "core/extract.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <utility>

#include "support/string_utils.hpp"

namespace tetra::core {

const std::vector<std::size_t> TraceIndex::kEmpty{};

namespace {

/// (time, seq) order of the indexed rows — the k-way merge order.
struct ChronoLess {
  const std::int64_t* time;
  bool operator()(std::size_t a, std::size_t b) const {
    return time[a] < time[b] || (time[a] == time[b] && a < b);
  }
};

/// Restores `less` order after pushing a batch whose entries are
/// themselves sorted: one stable in-place merge (older entries first on
/// ties, as in the merged trace), skipped when the batch already belongs
/// at the tail (the overwhelmingly common case).
template <typename T, typename Less>
void merge_tail(std::vector<T>& list, std::size_t old_size, Less less) {
  if (old_size == 0 || old_size == list.size()) return;
  if (!less(list[old_size], list[old_size - 1])) return;
  std::inplace_merge(list.begin(),
                     list.begin() + static_cast<std::ptrdiff_t>(old_size),
                     list.end(), less);
}

const std::vector<CpuSwitch> kNoSwitches;
const std::vector<TimePoint> kNoWakeups;

}  // namespace

const char* ros2_request_suffix() { return "Request"; }
const char* ros2_reply_suffix() { return "Reply"; }

bool is_service_request_topic(std::string_view topic) {
  return ends_with(topic, ros2_request_suffix());
}

bool is_service_reply_topic(std::string_view topic) {
  return ends_with(topic, ros2_reply_suffix());
}

TraceIndex::TraceIndex(const trace::EventVector& events) {
  if (trace::is_time_sorted(events)) {
    columns_.append(events);
  } else {
    trace::EventVector copy = events;
    trace::sort_by_time(copy);
    columns_.append(copy);
  }
  index_rows(0);
}

void TraceIndex::append(const trace::EventVector& sorted_segment) {
  if (!trace::is_time_sorted(sorted_segment)) {
    throw std::invalid_argument("TraceIndex::append requires a time-sorted "
                                "segment");
  }
  const std::size_t base = columns_.size();
  columns_.append(sorted_segment);
  index_rows(base);
}

void TraceIndex::append(const trace::ColumnsView& view) {
  if (!trace::is_time_sorted(view)) {
    throw std::invalid_argument("TraceIndex::append requires a time-sorted "
                                "segment");
  }
  const std::size_t base = columns_.size();
  columns_.append(view);
  index_rows(base);
}

void TraceIndex::append(trace::EventColumns&& segment) {
  if (!columns_.empty() || !trace::is_time_sorted(segment.view())) {
    // Copied in (or rejected), and freed when the append returns.
    const trace::EventColumns consumed = std::move(segment);
    append(consumed.view());
    return;
  }
  columns_ = std::move(segment);
  index_rows(0);
}

void TraceIndex::index_rows(std::size_t base) {
  const trace::ColumnsView v = columns_.view();
  // Every list this batch grows is stamped with the batch on first touch
  // and remembers its old size, so order is restored with one merge each
  // afterwards.
  const std::uint64_t batch = ++batch_;
  std::vector<PidSlot*> touched_slots;
  std::vector<ResponseList*> touched_responses;
  const auto slot_of = [&](Pid pid) -> PidSlot& {
    PidSlot& slot = slots_[pid];
    if (slot.batch != batch) {
      slot.batch = batch;
      slot.ros_mark = slot.ros.size();
      slot.p14_mark = slot.p14.size();
      slot.switches_mark = slot.switches.size();
      slot.wakeups_mark = slot.wakeups.size();
      touched_slots.push_back(&slot);
    }
    return slot;
  };

  for (std::size_t i = base; i < v.count; ++i) {
    const auto type = static_cast<trace::EventType>(v.type[i]);
    if (type == trace::EventType::SchedSwitch) {
      // One row moves two threads; the idle pid has no callbacks.
      const TimePoint t{v.time[i]};
      const Pid prev = static_cast<Pid>(v.sched_prev_pid(i));
      const Pid next = static_cast<Pid>(v.sched_next_pid(i));
      if (prev != kIdlePid) {
        slot_of(prev).switches.push_back(CpuSwitch{
            t, false,
            static_cast<trace::ThreadRunState>(static_cast<char>(v.aux[i]))});
      }
      if (next != kIdlePid) {
        slot_of(next).switches.push_back(
            CpuSwitch{t, true, trace::ThreadRunState::Runnable});
      }
      continue;
    }
    if (type == trace::EventType::SchedWakeup) {
      slot_of(static_cast<Pid>(v.wakeup_pid(i)))
          .wakeups.push_back(TimePoint{v.time[i]});
      continue;
    }

    const Pid pid = static_cast<Pid>(v.pid[i]);
    PidSlot& slot = slot_of(pid);
    slot.ros.push_back(i);

    switch (type) {
      case trace::EventType::RmwCreateNode:
        // Last event in merged order names the node: the newcomer (larger
        // seq) wins unless it is chronologically earlier.
        if (slot.node_seq == npos || v.time[i] >= slot.node_time) {
          slot.node_time = v.time[i];
          slot.node_seq = i;
          nodes_[pid] = std::string(v.str(v.arg_c[i]));
        }
        break;
      case trace::EventType::DdsWrite: {
        const TopicTsKey key{v.arg_c[i], v.arg_b[i]};
        auto [it, inserted] = writes_.try_emplace(key, i);
        // First event in merged order is canonical: replace only when the
        // newcomer is strictly earlier.
        if (!inserted && v.time[i] < v.time[it->second]) it->second = i;
        break;
      }
      case trace::EventType::Take:
        if (static_cast<trace::TakeKind>(v.aux[i]) ==
            trace::TakeKind::Response) {
          const TopicTsKey key{v.arg_c[i], v.arg_b[i]};
          ResponseList& list = take_responses_[key];
          if (list.batch != batch) {
            list.batch = batch;
            list.mark = list.seqs.size();
            touched_responses.push_back(&list);
          }
          list.seqs.push_back(i);
        }
        break;
      case trace::EventType::TakeTypeErased:
        slot.p14.push_back(i);
        break;
      default:
        break;
    }
  }

  const ChronoLess chrono_less{v.time};
  const auto switch_less = [](const CpuSwitch& a, const CpuSwitch& b) {
    return a.time < b.time;
  };
  for (PidSlot* slot : touched_slots) {
    merge_tail(slot->ros, slot->ros_mark, chrono_less);
    merge_tail(slot->p14, slot->p14_mark, chrono_less);
    merge_tail(slot->switches, slot->switches_mark, switch_less);
    merge_tail(slot->wakeups, slot->wakeups_mark, std::less<TimePoint>());
  }
  for (ResponseList* list : touched_responses) {
    merge_tail(list->seqs, list->mark, chrono_less);
  }
}

trace::TraceEvent TraceIndex::event_at(std::size_t seq) const {
  return trace::materialize_event(columns_.view(), seq);
}

const TraceIndex::PidSlot* TraceIndex::find_slot(Pid pid) const {
  auto it = slots_.find(pid);
  return it == slots_.end() ? nullptr : &it->second;
}

const std::vector<std::size_t>& TraceIndex::ros_events_of(Pid pid) const {
  const PidSlot* slot = find_slot(pid);
  return slot == nullptr ? kEmpty : slot->ros;
}

const std::vector<CpuSwitch>& TraceIndex::switches_of(Pid pid) const {
  const PidSlot* slot = find_slot(pid);
  return slot == nullptr ? kNoSwitches : slot->switches;
}

const std::vector<TimePoint>& TraceIndex::wakeups_of(Pid pid) const {
  const PidSlot* slot = find_slot(pid);
  return slot == nullptr ? kNoWakeups : slot->wakeups;
}

std::size_t TraceIndex::find_write(const TopicTsKey& key) const {
  auto it = writes_.find(key);
  return it == writes_.end() ? npos : it->second;
}

std::size_t TraceIndex::find_write(const std::string& topic,
                                   TimePoint src_ts) const {
  const auto id = columns_.lookup(topic);
  return id ? find_write(TopicTsKey{*id, src_ts.count_ns()}) : npos;
}

const std::vector<std::size_t>& TraceIndex::find_take_responses(
    const TopicTsKey& key) const {
  auto it = take_responses_.find(key);
  return it == take_responses_.end() ? kEmpty : it->second.seqs;
}

const std::vector<std::size_t>& TraceIndex::find_take_responses(
    const std::string& topic, TimePoint src_ts) const {
  const auto id = columns_.lookup(topic);
  return id ? find_take_responses(TopicTsKey{*id, src_ts.count_ns()})
            : kEmpty;
}

std::size_t TraceIndex::next_take_type_erased_after(Pid pid,
                                                    std::size_t after) const {
  const PidSlot* slot = find_slot(pid);
  if (slot == nullptr) return npos;
  auto pos = std::upper_bound(slot->p14.begin(), slot->p14.end(), after,
                              ChronoLess{columns_.view().time});
  return pos == slot->p14.end() ? npos : *pos;
}

CallbackId find_caller(const TraceIndex& index, std::size_t take_seq) {
  // Step 1: the dds_write with the same topic and source timestamp as the
  // take identifies the writing process and the write instant.
  const trace::ColumnsView v = index.view();
  const TopicTsKey key{v.arg_c[take_seq], v.arg_b[take_seq]};
  const std::size_t write_seq = index.find_write(key);
  if (write_seq == TraceIndex::npos) return kInvalidCallbackId;
  const Pid writer_pid = static_cast<Pid>(v.pid[write_seq]);

  // Step 2: in the writer's event stream, the timer_call or take event
  // that chronologically precedes the write and follows the last CB start
  // identifies the caller callback. The write itself sits in that
  // (time, seq)-sorted stream, so a binary search finds it and a walk back
  // to the nearest CB start, timer_call or take decides.
  const std::vector<std::size_t>& stream = index.ros_events_of(writer_pid);
  auto pos = std::lower_bound(stream.begin(), stream.end(), write_seq,
                              ChronoLess{v.time});
  while (pos != stream.begin()) {
    const std::size_t seq = *--pos;
    switch (static_cast<trace::EventType>(v.type[seq])) {
      case trace::EventType::CallbackStart:
        return kInvalidCallbackId;  // the instance had no caller id yet
      case trace::EventType::TimerCall:
      case trace::EventType::Take:
        return static_cast<CallbackId>(v.arg_a[seq]);
      default:
        break;
    }
  }
  return kInvalidCallbackId;
}

CallbackId find_client(const TraceIndex& index, std::size_t write_seq) {
  const trace::ColumnsView v = index.view();
  const TopicTsKey key{v.arg_c[write_seq], v.arg_b[write_seq]};
  // All take_response events for this response — one per client node of
  // the service (ncl of them). Only the caller's P14 evaluates true.
  for (std::size_t take_seq : index.find_take_responses(key)) {
    const Pid take_pid = static_cast<Pid>(v.pid[take_seq]);
    const std::size_t p14 = index.next_take_type_erased_after(take_pid,
                                                              take_seq);
    if (p14 != TraceIndex::npos && v.aux[p14] != 0) {
      return static_cast<CallbackId>(v.arg_a[take_seq]);
    }
  }
  return kInvalidCallbackId;
}

namespace {

/// A topic as Alg. 1 names it — plain, or cat(topic, id) with "?" for an
/// unresolved id — kept as a string-table id until a record needs the
/// string. Equal refs name equal strings.
struct TopicRef {
  std::uint32_t topic = 0;  ///< string-table id ("" is 0)
  bool annotated = false;
  CallbackId id = kInvalidCallbackId;

  bool operator==(const TopicRef&) const = default;

  /// Writes the topic string into `out`, reusing its capacity.
  void format(const trace::ColumnsView& v, std::string& out) const {
    out.assign(v.str(topic));
    if (!annotated) return;
    out += kTopicAnnotationSeparator;
    if (id == kInvalidCallbackId) {
      out += kUnknownAnnotation;
    } else {
      append_hex_id(out, id);
    }
  }
};

/// In-flight callback instance state (Alg. 1's CB.* working set). Reused
/// across instances: reset() keeps the out-topic capacity.
struct InFlight {
  bool active = false;
  CallbackKind kind = CallbackKind::Timer;
  CallbackId id = kInvalidCallbackId;
  TimePoint start;
  TopicRef in_topic;
  std::vector<TopicRef> out_topics;
  bool is_sync_subscriber = false;
  /// Probe executions whose cost lands inside the instance's [start, end]
  /// measurement window (the CB-end exit probe fires after `end` and is
  /// excluded; rmw_take contributes an entry and an exit probe).
  std::int64_t probe_hits = 0;

  void reset() {
    auto topics = std::move(out_topics);
    topics.clear();
    *this = InFlight{};
    out_topics = std::move(topics);
  }
};

}  // namespace

CallbackList extract_callbacks(const TraceIndex& index, Pid pid,
                               const ExtractOptions& options) {
  CallbackList list;
  list.pid = pid;
  auto node_it = index.nodes().find(pid);
  list.node_name = node_it != index.nodes().end() ? node_it->second : "";

  const trace::ColumnsView v = index.view();
  const std::vector<CpuSwitch>& switches = index.switches_of(pid);
  InFlight cb;
  std::string in_topic;  // scratch strings: formatted topics of one instance
  std::string out_topic;
  for (std::size_t seq : index.ros_events_of(pid)) {  // chronological
    switch (static_cast<trace::EventType>(v.type[seq])) {
      case trace::EventType::CallbackStart: {  // lines 3-5
        cb.reset();
        cb.active = true;
        cb.kind = static_cast<CallbackKind>(v.aux[seq]);
        cb.start = TimePoint{v.time[seq]};
        cb.probe_hits = 1;
        break;
      }
      case trace::EventType::TimerCall: {  // lines 6-7
        if (!cb.active) break;
        cb.id = static_cast<CallbackId>(v.arg_a[seq]);
        ++cb.probe_hits;
        break;
      }
      case trace::EventType::Take: {  // lines 8-15
        if (!cb.active) break;
        cb.id = static_cast<CallbackId>(v.arg_a[seq]);
        cb.probe_hits += 2;  // rmw_take entry + exit probes
        const std::uint32_t topic = v.arg_c[seq];
        switch (static_cast<trace::TakeKind>(v.aux[seq])) {
          case trace::TakeKind::Response:  // lines 10-11
            cb.in_topic = TopicRef{topic, true, cb.id};
            break;
          case trace::TakeKind::Request:  // lines 12-13
            cb.in_topic = TopicRef{topic, true, find_caller(index, seq)};
            break;
          case trace::TakeKind::Data:  // lines 14-15
            cb.in_topic = TopicRef{topic, false, kInvalidCallbackId};
            break;
        }
        break;
      }
      case trace::EventType::DdsWrite: {  // lines 16-23
        if (!cb.active) break;
        ++cb.probe_hits;
        const std::uint32_t topic = v.arg_c[seq];
        const std::string_view name = v.str(topic);
        TopicRef top_out{topic, false, kInvalidCallbackId};
        if (is_service_request_topic(name)) {  // lines 17-18
          top_out = TopicRef{topic, true, cb.id};
        } else if (is_service_reply_topic(name)) {  // lines 19-20
          top_out = TopicRef{topic, true, find_client(index, seq)};
        }  // else lines 21-22: the plain topic
        if (std::find(cb.out_topics.begin(), cb.out_topics.end(), top_out) ==
            cb.out_topics.end()) {
          cb.out_topics.push_back(top_out);
        }
        break;
      }
      case trace::EventType::TakeTypeErased: {  // lines 24-25
        if (cb.active) ++cb.probe_hits;
        if (v.aux[seq] == 0) cb.reset();
        break;
      }
      case trace::EventType::SyncOperator: {  // lines 26-27
        if (!cb.active) break;
        cb.is_sync_subscriber = true;
        ++cb.probe_hits;
        break;
      }
      case trace::EventType::CallbackEnd: {  // lines 28-32
        if (!cb.active) break;
        const TimePoint end{v.time[seq]};
        Duration et = exec_time(switches, cb.start, end);
        if (options.compensate_per_hit > Duration::zero() &&
            cb.probe_hits > 0) {
          const Duration overhead = options.compensate_per_hit * cb.probe_hits;
          et = et > overhead ? et - overhead : Duration::zero();
        }

        cb.in_topic.format(v, in_topic);
        CallbackRecord& record = list.match_or_insert(cb.kind, cb.id, pid,
                                                      list.node_name, in_topic);
        record.is_sync_subscriber |= cb.is_sync_subscriber;
        for (const TopicRef& topic : cb.out_topics) {
          topic.format(v, out_topic);
          record.add_out_topic(out_topic);
        }
        record.add_instance(cb.start, et, end);
        cb.reset();
        break;
      }
      default:
        break;
    }
  }
  return list;
}

std::vector<CallbackList> extract_all_nodes(const TraceIndex& index,
                                            const ExtractOptions& options) {
  std::vector<CallbackList> lists;
  lists.reserve(index.nodes().size());
  for (const auto& [pid, name] : index.nodes()) {
    lists.push_back(extract_callbacks(index, pid, options));
  }
  return lists;
}

void merge_worker_lists(std::vector<CallbackList>& lists) {
  std::vector<CallbackList> merged;
  std::map<std::string, std::size_t> index_of_node;
  for (auto& list : lists) {
    // Unnamed lists (PIDs without a P1) are never worker siblings.
    if (list.node_name.empty()) {
      merged.push_back(std::move(list));
      continue;
    }
    auto [it, inserted] = index_of_node.emplace(list.node_name, merged.size());
    if (inserted) {
      merged.push_back(std::move(list));
      continue;
    }
    CallbackList& target = merged[it->second];
    // Keep the lowest PID as the node identity (worker 0 registers first
    // and P1 events arrive in creation order).
    if (list.pid < target.pid) target.pid = list.pid;
    for (auto& record : list.records) {
      CallbackRecord& slot = target.match_or_insert(record);
      slot.merge_from(record);
    }
  }
  lists = std::move(merged);
}

void normalize_labels(std::vector<CallbackList>& lists) {
  // Pass 1: assign a label to every distinct raw callback id, ordering by
  // id within (node, kind) — heap allocation order is creation order, so
  // ordinals are stable across runs.
  std::map<CallbackId, std::string> label_of;
  for (auto& list : lists) {
    std::map<CallbackKind, std::vector<CallbackId>> ids_by_kind;
    for (const auto& record : list.records) {
      auto& ids = ids_by_kind[record.kind];
      if (std::find(ids.begin(), ids.end(), record.id) == ids.end()) {
        ids.push_back(record.id);
      }
    }
    for (auto& [kind, ids] : ids_by_kind) {
      std::sort(ids.begin(), ids.end());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        label_of[ids[i]] = list.node_name + "/" + to_short_string(kind) +
                           std::to_string(i + 1);
      }
    }
  }

  // Pass 2: set record labels and rewrite topic annotations from raw ids
  // to labels (unresolvable annotations keep the '?' marker).
  auto rewrite = [&label_of](const std::string& topic) {
    auto [plain, suffix] = split_annotated_topic(topic);
    if (suffix.empty()) return topic;
    if (suffix == kUnknownAnnotation) return topic;
    const CallbackId id = std::strtoull(suffix.c_str(), nullptr, 16);
    auto it = label_of.find(id);
    return annotate_topic(plain,
                          it == label_of.end() ? kUnknownAnnotation : it->second);
  };
  for (auto& list : lists) {
    for (auto& record : list.records) {
      record.label = label_of[record.id];
      record.in_topic = rewrite(record.in_topic);
      for (auto& topic : record.out_topics) topic = rewrite(topic);
    }
  }
}

}  // namespace tetra::core
