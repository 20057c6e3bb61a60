// Algorithm 2 (paper §IV): measuring a callback instance's execution time
// by intersecting its [start, end] window with the thread's on-CPU
// segments reconstructed from sched_switch events.
//
// Two implementations are provided:
//  - exec_time_naive: a line-by-line transcription of the paper's
//    pseudocode (O(#sched events) per call) — kept as the reference
//    oracle for differential testing;
//  - exec_time: the production one, over one thread's time-sorted switch
//    list (TraceIndex::switches_of), binary-searched to the window.
#pragma once

#include <optional>
#include <vector>

#include "support/ids.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"

namespace tetra::core {

/// One sched_switch as the thread it moved sees it.
struct CpuSwitch {
  TimePoint time;
  bool in = false;  ///< true: the thread got the CPU; false: it left
  /// The state it left in (Runnable = preempted); only meaningful when !in.
  trace::ThreadRunState prev_state = trace::ThreadRunState::Runnable;
};

/// Paper Algorithm 2, verbatim semantics. `sched_events` must be sorted by
/// time and may contain events of any PID/CPU.
Duration exec_time_naive(TimePoint start, TimePoint end, Pid pid,
                         const trace::EventVector& sched_events);

/// Execution time of the window [start, end] for the thread whose switches
/// are `switches` (sorted by time): the sum of its on-CPU segments inside
/// the window. The thread is assumed on-CPU at both `start` and `end`
/// (callback start/end events are emitted from the running thread), so a
/// thread that never switched ran throughout.
Duration exec_time(const std::vector<CpuSwitch>& switches, TimePoint start,
                   TimePoint end);

/// The latest of the sorted `wakeups` at or before `t`, if any.
std::optional<TimePoint> last_wakeup_before(
    const std::vector<TimePoint>& wakeups, TimePoint t);

}  // namespace tetra::core
