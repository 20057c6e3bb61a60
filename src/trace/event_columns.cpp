#include "trace/event_columns.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tetra::trace {

std::string_view ColumnsView::str(std::uint32_t index) const {
  if (index >= string_count) {
    throw std::invalid_argument("string index out of range: " +
                                std::to_string(index));
  }
  const std::uint32_t begin = str_offsets[index];
  const std::uint32_t end = str_offsets[index + 1];
  return std::string_view(blob + begin, end - begin);
}

ColumnsView ColumnsView::rows(std::size_t first, std::size_t n) const {
  ColumnsView v = *this;
  v.time += first;
  v.arg_a += first;
  v.arg_b += first;
  v.pid += first;
  v.arg_c += first;
  v.probe += first;
  v.type += first;
  v.aux += first;
  v.count = n;
  return v;
}

PackedRow ColumnsView::row(std::size_t i) const {
  return PackedRow{time[i],  arg_a[i], arg_b[i], pid[i],
                   arg_c[i], probe[i], type[i],  aux[i]};
}

bool is_time_sorted(const ColumnsView& view) {
  for (std::size_t i = 1; i < view.count; ++i) {
    if (view.time[i] < view.time[i - 1]) return false;
  }
  return true;
}

EventColumns::EventColumns() {
  str_offsets_ = {0, 0};  // index 0 is the empty string
  intern_.emplace(std::string(), 0);
}

EventColumns::EventColumns(const EventVector& events) : EventColumns() {
  append(events);
}

std::uint32_t EventColumns::intern(std::string_view s) {
  auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(str_offsets_.size() - 1);
  blob_.append(s);
  str_offsets_.push_back(static_cast<std::uint32_t>(blob_.size()));
  intern_.emplace(std::string(s), index);
  return index;
}

std::optional<std::uint32_t> EventColumns::lookup(std::string_view s) const {
  auto it = intern_.find(s);
  if (it == intern_.end()) return std::nullopt;
  return it->second;
}

void EventColumns::reserve(std::size_t additional_events) {
  const std::size_t target = time_.size() + additional_events;
  time_.reserve(target);
  arg_a_.reserve(target);
  arg_b_.reserve(target);
  pid_.reserve(target);
  arg_c_.reserve(target);
  probe_.reserve(target);
  type_.reserve(target);
  aux_.reserve(target);
}

void EventColumns::append(const PackedRow& row) {
  time_.push_back(row.time);
  arg_a_.push_back(row.arg_a);
  arg_b_.push_back(row.arg_b);
  pid_.push_back(row.pid);
  arg_c_.push_back(row.arg_c);
  probe_.push_back(row.probe);
  type_.push_back(row.type);
  aux_.push_back(row.aux);
}

void EventColumns::append(const TraceEvent& e) {
  PackedRow row;
  row.time = e.time.count_ns();
  row.pid = static_cast<std::int32_t>(e.pid);
  row.probe = static_cast<std::uint8_t>(e.probe);
  row.type = static_cast<std::uint8_t>(e.type);
  switch (e.type) {
    case EventType::RmwCreateNode:
      row.arg_c = intern(e.as<NodeInfo>().node_name);
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      row.aux = static_cast<std::uint8_t>(e.as<CallbackPhaseInfo>().kind);
      break;
    case EventType::TimerCall:
      row.arg_a = static_cast<std::uint64_t>(e.as<TimerCallInfo>().callback_id);
      break;
    case EventType::Take: {
      const auto& info = e.as<TakeInfo>();
      row.aux = static_cast<std::uint8_t>(info.kind);
      row.arg_a = static_cast<std::uint64_t>(info.callback_id);
      row.arg_b = info.src_ts.count_ns();
      row.arg_c = intern(info.topic);
      break;
    }
    case EventType::TakeTypeErased:
      row.aux = e.as<TakeTypeErasedInfo>().will_dispatch ? 1 : 0;
      break;
    case EventType::SyncOperator:
      row.arg_a =
          static_cast<std::uint64_t>(e.as<SyncOperatorInfo>().callback_id);
      break;
    case EventType::DdsWrite: {
      const auto& info = e.as<DdsWriteInfo>();
      row.arg_b = info.src_ts.count_ns();
      row.arg_c = intern(info.topic);
      break;
    }
    case EventType::SchedSwitch: {
      const auto& info = e.as<SchedSwitchInfo>();
      row.aux = static_cast<std::uint8_t>(static_cast<char>(info.prev_state));
      row.arg_a = pack_pid_pair(info.prev_pid, info.next_pid);
      row.arg_b = static_cast<std::int64_t>(
          pack_pid_pair(info.cpu, info.prev_prio));
      row.arg_c = static_cast<std::uint32_t>(info.next_prio);
      break;
    }
    case EventType::SchedWakeup: {
      const auto& info = e.as<SchedWakeupInfo>();
      row.arg_a = pack_pid_pair(info.woken_pid, info.target_cpu);
      break;
    }
  }
  append(row);
}

void EventColumns::append(const EventVector& events) {
  reserve(events.size());
  for (const auto& e : events) append(e);
}

void EventColumns::append(const ColumnsView& v) {
  const std::size_t base = size();
  time_.insert(time_.end(), v.time, v.time + v.count);
  arg_a_.insert(arg_a_.end(), v.arg_a, v.arg_a + v.count);
  arg_b_.insert(arg_b_.end(), v.arg_b, v.arg_b + v.count);
  pid_.insert(pid_.end(), v.pid, v.pid + v.count);
  arg_c_.insert(arg_c_.end(), v.arg_c, v.arg_c + v.count);
  probe_.insert(probe_.end(), v.probe, v.probe + v.count);
  type_.insert(type_.end(), v.type, v.type + v.count);
  aux_.insert(aux_.end(), v.aux, v.aux + v.count);
  // String-bearing rows index the source view's table; rewrite them to
  // indices in our own. Each source string is interned at its first use,
  // so the table grows in the order per-row interning would give.
  std::vector<std::uint32_t> remap;
  for (std::size_t i = 0; i < v.count; ++i) {
    if (!carries_string(static_cast<EventType>(v.type[i]))) continue;
    arg_c_[base + i] = intern_from(v, v.arg_c[i], remap);
  }
}

void EventColumns::append(const ColumnsView& v,
                          const std::vector<std::size_t>& rows) {
  reserve(rows.size());
  std::vector<std::uint32_t> remap;
  for (const std::size_t i : rows) {
    PackedRow row = v.row(i);
    if (carries_string(static_cast<EventType>(row.type))) {
      row.arg_c = intern_from(v, row.arg_c, remap);
    }
    append(row);
  }
}

std::uint32_t EventColumns::intern_from(const ColumnsView& v,
                                        std::uint32_t from,
                                        std::vector<std::uint32_t>& remap) {
  constexpr std::uint32_t kUnmapped = static_cast<std::uint32_t>(-1);
  if (from >= v.string_count) v.str(from);  // throws std::invalid_argument
  if (remap.empty()) remap.assign(v.string_count, kUnmapped);
  if (remap[from] == kUnmapped) remap[from] = intern(v.str(from));
  return remap[from];
}

void EventColumns::erase_front(std::size_t n) {
  if (n == 0) return;
  if (str_offsets_.size() - 1 > size() - n) {
    EventColumns kept;
    kept.append(view().rows(n, size() - n));
    *this = std::move(kept);
    return;
  }
  const auto erase = [n](auto& column) {
    column.erase(column.begin(),
                 column.begin() + static_cast<std::ptrdiff_t>(n));
  };
  erase(time_);
  erase(arg_a_);
  erase(arg_b_);
  erase(pid_);
  erase(arg_c_);
  erase(probe_);
  erase(type_);
  erase(aux_);
}

void EventColumns::shift(Duration offset) {
  const std::int64_t ns = offset.count_ns();
  for (std::size_t i = 0; i < time_.size(); ++i) {
    time_[i] += ns;
    const auto type = static_cast<EventType>(type_[i]);
    if (type == EventType::Take || type == EventType::DdsWrite) {
      arg_b_[i] += ns;
    }
  }
}

ColumnsView EventColumns::view() const {
  ColumnsView v;
  v.time = time_.data();
  v.arg_a = arg_a_.data();
  v.arg_b = arg_b_.data();
  v.pid = pid_.data();
  v.arg_c = arg_c_.data();
  v.probe = probe_.data();
  v.type = type_.data();
  v.aux = aux_.data();
  v.count = time_.size();
  v.str_offsets = str_offsets_.data();
  v.string_count = str_offsets_.size() - 1;
  v.blob = blob_.data();
  v.blob_size = blob_.size();
  return v;
}

bool sort_by_time(EventColumns& columns) {
  const ColumnsView view = columns.view();
  if (is_time_sorted(view)) return true;
  std::vector<std::size_t> order(view.count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return view.time[a] < view.time[b];
                   });
  EventColumns sorted;
  sorted.append(view, order);
  columns = std::move(sorted);
  return false;
}

TraceEvent materialize_event(const ColumnsView& v, std::size_t i) {
  if (i >= v.count) {
    throw std::out_of_range("event row out of range: " + std::to_string(i));
  }
  TraceEvent e;
  e.time = TimePoint{v.time[i]};
  e.pid = static_cast<Pid>(v.pid[i]);
  e.probe = probe_id_from_int(v.probe[i]);
  e.type = event_type_from_int(v.type[i]);
  switch (e.type) {
    case EventType::RmwCreateNode:
      e.payload = NodeInfo{std::string(v.str(v.arg_c[i]))};
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      e.payload = CallbackPhaseInfo{callback_kind_from_int(v.aux[i])};
      break;
    case EventType::TimerCall:
      e.payload = TimerCallInfo{static_cast<CallbackId>(v.arg_a[i])};
      break;
    case EventType::Take:
      e.payload = TakeInfo{take_kind_from_int(v.aux[i]),
                           static_cast<CallbackId>(v.arg_a[i]),
                           std::string(v.str(v.arg_c[i])),
                           TimePoint{v.arg_b[i]}};
      break;
    case EventType::TakeTypeErased:
      e.payload = TakeTypeErasedInfo{v.aux[i] != 0};
      break;
    case EventType::SyncOperator:
      e.payload = SyncOperatorInfo{static_cast<CallbackId>(v.arg_a[i])};
      break;
    case EventType::DdsWrite:
      e.payload = DdsWriteInfo{std::string(v.str(v.arg_c[i])),
                               TimePoint{v.arg_b[i]}};
      break;
    case EventType::SchedSwitch: {
      SchedSwitchInfo info;
      info.cpu = static_cast<CpuId>(v.sched_cpu(i));
      info.prev_pid = static_cast<Pid>(v.sched_prev_pid(i));
      info.prev_prio = static_cast<int>(v.sched_prev_prio(i));
      info.prev_state =
          thread_run_state_from_char(static_cast<char>(v.aux[i]));
      info.next_pid = static_cast<Pid>(v.sched_next_pid(i));
      info.next_prio = static_cast<int>(v.sched_next_prio(i));
      e.payload = info;
      break;
    }
    case EventType::SchedWakeup: {
      SchedWakeupInfo info;
      info.woken_pid = static_cast<Pid>(v.wakeup_pid(i));
      info.target_cpu = static_cast<CpuId>(v.wakeup_cpu(i));
      e.payload = info;
      break;
    }
  }
  return e;
}

EventVector materialize(const ColumnsView& view) {
  EventVector out;
  out.reserve(view.count);
  for (std::size_t i = 0; i < view.count; ++i) {
    out.push_back(materialize_event(view, i));
  }
  return out;
}

void validate_columns(const ColumnsView& v) {
  for (std::size_t i = 0; i < v.count; ++i) {
    try {
      probe_id_from_int(v.probe[i]);
      const EventType type = event_type_from_int(v.type[i]);
      if (carries_string(type)) v.str(v.arg_c[i]);
      switch (type) {
        case EventType::CallbackStart:
        case EventType::CallbackEnd:
          callback_kind_from_int(v.aux[i]);
          break;
        case EventType::Take:
          take_kind_from_int(v.aux[i]);
          break;
        case EventType::SchedSwitch:
          thread_run_state_from_char(static_cast<char>(v.aux[i]));
          break;
        default:
          break;
      }
    } catch (const std::invalid_argument& err) {
      throw std::invalid_argument("invalid event row " + std::to_string(i) +
                                  ": " + err.what());
    }
  }
}

}  // namespace tetra::trace
