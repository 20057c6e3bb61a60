#include "core/exec_time.hpp"

#include <algorithm>

namespace tetra::core {

Duration exec_time_naive(TimePoint start, TimePoint end, Pid pid,
                         const trace::EventVector& sched_events) {
  // Paper Alg. 2. Line numbering follows the pseudocode; the trailing
  // "no event after end" case (the loop running out) is handled after the
  // loop, which the pseudocode leaves implicit.
  if (end < start) return Duration::zero();  // inverted window: no time
  Duration exec_time = Duration::zero();   // line 1
  TimePoint last_start = start;            // line 2
  bool on_cpu = true;  // the CB start event is emitted from the running thread
  for (const auto& event : sched_events) {  // line 3 (pre-sorted)
    if (event.type != trace::EventType::SchedSwitch) continue;
    const auto& info = event.as<trace::SchedSwitchInfo>();
    if (start < event.time && event.time < end) {  // line 4
      if (info.prev_pid == pid) {                  // line 5
        exec_time += event.time - last_start;      // line 6
        on_cpu = false;
      } else if (info.next_pid == pid) {           // line 7
        last_start = event.time;                   // line 8
        on_cpu = true;
      }
    } else if (event.time > end) {                 // line 9
      if (on_cpu) exec_time += end - last_start;   // line 10
      return exec_time;                            // line 11
    }
  }
  if (on_cpu) exec_time += end - last_start;
  return exec_time;
}

ExecTimeCalculator::ExecTimeCalculator(const trace::EventVector& events) {
  trace::EventVector sorted = events;
  trace::sort_by_time(sorted);
  trace::EventColumns columns;
  columns.append(sorted);
  append_columns(columns.view(), 0);
}

const ExecTimeCalculator::Slot* ExecTimeCalculator::find_slot(Pid pid) const {
  auto it = slots_.find(pid);
  return it == slots_.end() ? nullptr : &it->second;
}

std::vector<Pid> ExecTimeCalculator::append_columns(const trace::ColumnsView& v,
                                                    std::size_t from) {
  const std::uint64_t batch = ++batch_;
  std::vector<Slot*> touched;
  std::vector<Pid> pids;
  // Stamps each slot on its first touch in this batch with its old sizes,
  // so every list is re-merged once below.
  const auto touch = [&](Pid pid) -> Slot& {
    Slot& slot = slots_[pid];
    if (slot.batch != batch) {
      slot.batch = batch;
      slot.switches_mark = slot.switches.size();
      slot.wakeups_mark = slot.wakeups.size();
      touched.push_back(&slot);
      pids.push_back(pid);
    }
    return slot;
  };
  for (std::size_t i = from; i < v.count; ++i) {
    const auto type = static_cast<trace::EventType>(v.type[i]);
    if (type == trace::EventType::SchedSwitch) {
      const TimePoint t{v.time[i]};
      const Pid prev = static_cast<Pid>(v.sched_prev_pid(i));
      const Pid next = static_cast<Pid>(v.sched_next_pid(i));
      if (prev != kIdlePid) {
        touch(prev).switches.push_back(Switch{
            t, false,
            static_cast<trace::ThreadRunState>(static_cast<char>(v.aux[i]))});
      }
      if (next != kIdlePid) {
        touch(next).switches.push_back(
            Switch{t, true, trace::ThreadRunState::Runnable});
      }
    } else if (type == trace::EventType::SchedWakeup) {
      touch(static_cast<Pid>(v.wakeup_pid(i)))
          .wakeups.push_back(TimePoint{v.time[i]});
    }
  }
  // A stable merge keeps older entries first on time ties — identical to
  // the stable_sort a full rebuild applies over the merged event order.
  for (Slot* slot : touched) {
    auto& switches = slot->switches;
    const std::size_t old_switches = slot->switches_mark;
    if (old_switches > 0 && old_switches < switches.size() &&
        switches[old_switches].time < switches[old_switches - 1].time) {
      std::inplace_merge(
          switches.begin(),
          switches.begin() + static_cast<std::ptrdiff_t>(old_switches),
          switches.end(),
          [](const Switch& a, const Switch& b) { return a.time < b.time; });
    }
    auto& wakeups = slot->wakeups;
    const std::size_t old_wakeups = slot->wakeups_mark;
    if (old_wakeups > 0 && old_wakeups < wakeups.size() &&
        wakeups[old_wakeups] < wakeups[old_wakeups - 1]) {
      std::inplace_merge(
          wakeups.begin(),
          wakeups.begin() + static_cast<std::ptrdiff_t>(old_wakeups),
          wakeups.end());
    }
  }
  std::sort(pids.begin(), pids.end());
  return pids;
}

Duration ExecTimeCalculator::exec_time(TimePoint start, TimePoint end,
                                       Pid pid) const {
  // Inverted windows (corrupt or hand-edited traces) have no well-defined
  // on-CPU intersection; report zero rather than a negative duration.
  if (end < start) return Duration::zero();
  const Slot* slot = find_slot(pid);
  if (slot == nullptr) return end - start;  // never switched: ran throughout
  const std::vector<Switch>& list = slot->switches;
  Duration total = Duration::zero();
  TimePoint last_start = start;
  bool on_cpu = true;
  auto it = std::upper_bound(
      list.begin(), list.end(), start,
      [](TimePoint t, const Switch& s) { return t < s.time; });
  for (; it != list.end() && it->time < end; ++it) {
    if (it->time <= start) continue;
    if (!it->in) {
      if (on_cpu) total += it->time - last_start;
      on_cpu = false;
    } else {
      last_start = it->time;
      on_cpu = true;
    }
  }
  if (on_cpu) total += end - last_start;
  return total;
}

std::optional<TimePoint> ExecTimeCalculator::last_wakeup_before(
    Pid pid, TimePoint t) const {
  const Slot* slot = find_slot(pid);
  if (slot == nullptr) return std::nullopt;
  const auto& list = slot->wakeups;
  auto pos = std::upper_bound(list.begin(), list.end(), t);
  if (pos == list.begin()) return std::nullopt;
  return *(pos - 1);
}

std::size_t ExecTimeCalculator::preemptions_in(TimePoint start, TimePoint end,
                                               Pid pid) const {
  const Slot* slot = find_slot(pid);
  if (slot == nullptr) return 0;
  std::size_t count = 0;
  for (const auto& s : slot->switches) {
    if (s.time <= start) continue;
    if (s.time >= end) break;
    if (!s.in && s.prev_state == trace::ThreadRunState::Runnable) ++count;
  }
  return count;
}

}  // namespace tetra::core
