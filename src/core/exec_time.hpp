// Algorithm 2 (paper §IV): measuring a callback instance's execution time
// by intersecting its [start, end] window with the thread's on-CPU
// segments reconstructed from sched_switch events.
//
// Two implementations are provided:
//  - exec_time_naive: a line-by-line transcription of the paper's
//    pseudocode (O(#sched events) per call) — kept as the reference
//    oracle for differential testing;
//  - ExecTimeCalculator: an indexed implementation (per-PID sorted
//    switch lists, binary-searched windows) used by the production
//    extraction pass.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "support/ids.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::core {

/// Paper Algorithm 2, verbatim semantics. `sched_events` must be sorted by
/// time and may contain events of any PID/CPU.
Duration exec_time_naive(TimePoint start, TimePoint end, Pid pid,
                         const trace::EventVector& sched_events);

/// Indexed Algorithm 2 plus the sched_wakeup-based waiting-time extension
/// (paper §VII).
class ExecTimeCalculator {
 public:
  /// Empty calculator; grow it with append_columns.
  ExecTimeCalculator() = default;

  /// Builds per-PID indices from any event stream (non-sched events are
  /// ignored): append_columns over a stable-sorted, packed copy.
  explicit ExecTimeCalculator(const trace::EventVector& events);

  /// Indexes the sched events of columnar rows [from, view.count). Rows of
  /// one batch must be time-sorted; per-PID lists stay sorted by (time,
  /// append order), matching what a full rebuild over the merged trace
  /// would produce. Returns the pids whose switch or wakeup lists grew,
  /// sorted and unique.
  std::vector<Pid> append_columns(const trace::ColumnsView& view,
                                  std::size_t from);

  /// Execution time of the window [start, end] for the thread `pid`:
  /// the sum of its on-CPU segments inside the window. The thread is
  /// assumed on-CPU at both `start` and `end` (callback start/end events
  /// are emitted from the running thread).
  Duration exec_time(TimePoint start, TimePoint end, Pid pid) const;

  /// The most recent sched_wakeup of `pid` at or before `t`, if any.
  std::optional<TimePoint> last_wakeup_before(Pid pid, TimePoint t) const;

  /// Number of preemptions (switch-outs in Runnable state) of `pid`
  /// within [start, end] — useful diagnostics for reports.
  std::size_t preemptions_in(TimePoint start, TimePoint end, Pid pid) const;

 private:
  struct Switch {
    TimePoint time;
    bool in;  ///< true: pid got the CPU; false: pid left the CPU
    trace::ThreadRunState prev_state;  ///< only meaningful when !in
  };
  /// Everything indexed for one pid.
  struct Slot {
    std::vector<Switch> switches;    ///< sorted by time, ties in append order
    std::vector<TimePoint> wakeups;  ///< sorted
    /// The append_columns batch that last grew the lists, and their sizes
    /// before it, so each list is re-merged once per batch.
    std::uint64_t batch = 0;
    std::size_t switches_mark = 0;
    std::size_t wakeups_mark = 0;
  };
  const Slot* find_slot(Pid pid) const;

  std::unordered_map<Pid, Slot> slots_;
  std::uint64_t batch_ = 0;
};

}  // namespace tetra::core
