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

Duration exec_time(const std::vector<CpuSwitch>& switches, TimePoint start,
                   TimePoint end) {
  // Inverted windows (corrupt or hand-edited traces) have no well-defined
  // on-CPU intersection; report zero rather than a negative duration.
  if (end < start) return Duration::zero();
  Duration total = Duration::zero();
  TimePoint last_start = start;
  bool on_cpu = true;
  auto it = std::upper_bound(
      switches.begin(), switches.end(), start,
      [](TimePoint t, const CpuSwitch& s) { return t < s.time; });
  for (; it != switches.end() && it->time < end; ++it) {
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

std::optional<TimePoint> last_wakeup_before(
    const std::vector<TimePoint>& wakeups, TimePoint t) {
  auto pos = std::upper_bound(wakeups.begin(), wakeups.end(), t);
  if (pos == wakeups.begin()) return std::nullopt;
  return *(pos - 1);
}

}  // namespace tetra::core
