// Bounded trace buffer, mirroring the perf-buffer the eBPF programs write
// into: fixed capacity, overruns are counted as drops (the deployment
// workflow of Fig. 2 restarts tracers with empty buffers between segments
// precisely to avoid such drops).
#pragma once

#include <cstddef>

#include "trace/event.hpp"

namespace tetra::trace {

class TraceBuffer {
 public:
  /// `capacity` = maximum number of records held before drops occur.
  explicit TraceBuffer(std::size_t capacity = 1u << 20);

  /// Appends a record; returns false (and counts a drop) when full.
  bool push(TraceEvent event);

  /// Moves all buffered records out, leaving the buffer empty.
  EventVector drain();

  /// Read-only view of the current content.
  const EventVector& events() const { return events_; }

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t dropped() const { return dropped_; }
  bool full() const { return events_.size() >= capacity_; }

  /// Empties the buffer and resets drop accounting — reuse starts fresh.
  void clear();

 private:
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  EventVector events_;
};

}  // namespace tetra::trace
