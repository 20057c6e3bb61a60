// The simulation executive: owns the clock and the event queue, and runs
// events until a horizon or until the model quiesces.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "support/time.hpp"

namespace tetra::sim {

/// Single-clock discrete-event simulator. All substrate components hold a
/// reference to one Simulator and schedule their activity through it.
class Simulator {
 public:
  /// Current simulation time (monotonic, ns).
  TimePoint now() const { return now_; }

  /// Schedules `action` at the absolute time `t` (must be >= now()).
  EventHandle at(TimePoint t, EventQueue::Action action);

  /// Schedules `action` after a relative delay (must be >= 0).
  EventHandle after(Duration delay, EventQueue::Action action);

  /// Fire-and-forget forms of at()/after(): no cancellation handle, no
  /// per-event handle allocation.
  void post_at(TimePoint t, EventQueue::Action action);
  void post_after(Duration delay, EventQueue::Action action);

  /// Cancels a previously scheduled event (no-op if already run).
  void cancel(EventHandle& handle) { queue_.cancel(handle); }

  /// Runs all events with time <= horizon. Events scheduled during the run
  /// are processed too if they fall within the horizon. The clock is left
  /// at `horizon` afterwards (matching "the apps ran for N seconds").
  void run_until(TimePoint horizon);

  /// Runs until the queue is empty (use only with self-terminating models).
  void run_to_completion();

  /// Runs exactly one event if any is pending; returns false otherwise.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  EventQueue queue_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t executed_ = 0;
};

}  // namespace tetra::sim
